package placement

import (
	"ufab/internal/sim"
	"ufab/internal/stats"
)

// ChurnConfig drives an open-loop tenant arrival/departure process
// against a Controller. The JSON tags make a churn spec a first-class
// part of serialized scenarios (the fuzzer's case files embed one).
type ChurnConfig struct {
	// Arrivals is the total number of tenant requests to submit.
	Arrivals int `json:"arrivals"`
	// MeanInterarrival is the mean of the exponential arrival spacing.
	MeanInterarrival sim.Duration `json:"mean_interarrival_ps"`
	// MeanHold is the mean tenant lifetime; an admitted tenant departs
	// (Release) after an exponential hold.
	MeanHold sim.Duration `json:"mean_hold_ps"`
	// VMsMin/VMsMax bound the uniform VM-count draw (default 2..4).
	VMsMin int `json:"vms_min,omitempty"`
	VMsMax int `json:"vms_max,omitempty"`
	// Guarantees are the per-VM hose choices drawn uniformly (default
	// {1 Gbps}).
	Guarantees []float64 `json:"guarantees_bps,omitempty"`
	// BacklogBytes per materialized pair (0 = infinite backlog).
	BacklogBytes int64 `json:"backlog_bytes,omitempty"`
	// FirstID numbers the generated tenants starting here (default 1).
	FirstID int32 `json:"first_id,omitempty"`
	// Seed drives the arrival process.
	Seed int64 `json:"seed,omitempty"`
}

// ChurnStats aggregates one churn run.
type ChurnStats struct {
	Submitted, Accepted, Rejected int
	// RejectedBy counts rejections per reason.
	RejectedBy map[string]int
	// TimeToAdmit is the submit→decision latency of accepted requests, in
	// simulated microseconds.
	TimeToAdmit stats.Samples
	// PeakMaxSubscription is the highest bottleneck-link subscription the
	// ledger ever reached; PeakTenants the largest concurrent tenant set.
	PeakMaxSubscription float64
	PeakTenants         int
	// FinalMeanSubscription is the fleet's committed utilization when the
	// run ended.
	FinalMeanSubscription float64
}

// AcceptRatio returns accepted/submitted (1 when nothing was submitted).
func (s *ChurnStats) AcceptRatio() float64 {
	if s.Submitted == 0 {
		return 1
	}
	return float64(s.Accepted) / float64(s.Submitted)
}

// Churn schedules cfg.Arrivals open-loop tenant requests on the
// controller's engine, each departing after its hold time if admitted,
// and returns the stats collector (populated as the simulation runs; read
// it after eng.Run). Arrival times, VM counts, guarantees and holds are
// drawn from a private seeded RNG, so a churn run is deterministic.
func Churn(c *Controller, cfg ChurnConfig) *ChurnStats {
	if cfg.VMsMin == 0 {
		cfg.VMsMin = 2
	}
	if cfg.VMsMax < cfg.VMsMin {
		cfg.VMsMax = cfg.VMsMin + 2
	}
	if len(cfg.Guarantees) == 0 {
		cfg.Guarantees = []float64{1e9}
	}
	if cfg.FirstID == 0 {
		cfg.FirstID = 1
	}
	rng := stats.NewRand(cfg.Seed ^ 0x706c6163)
	st := &ChurnStats{RejectedBy: make(map[string]int)}

	at := c.eng.Now()
	for i := 0; i < cfg.Arrivals; i++ {
		at += sim.Time(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		req := Request{
			ID:           cfg.FirstID + int32(i),
			GuaranteeBps: cfg.Guarantees[rng.Intn(len(cfg.Guarantees))],
			VMs:          cfg.VMsMin + rng.Intn(cfg.VMsMax-cfg.VMsMin+1),
			WeightClass:  rng.Intn(8),
			BacklogBytes: cfg.BacklogBytes,
		}
		hold := sim.Duration(rng.ExpFloat64() * float64(cfg.MeanHold))
		c.eng.At(at, func() {
			st.Submitted++
			c.Submit(req, func(d Decision) {
				if !d.Accepted {
					st.Rejected++
					st.RejectedBy[d.Reason]++
					return
				}
				st.Accepted++
				st.TimeToAdmit.Add(float64(d.DecidedAt-d.SubmittedAt) / 1e6)
				if s := c.alloc.ledger.MaxSubscription(); s > st.PeakMaxSubscription {
					st.PeakMaxSubscription = s
				}
				if n := c.alloc.ledger.Tenants(); n > st.PeakTenants {
					st.PeakTenants = n
				}
				c.eng.At(c.eng.Now()+sim.Time(hold), func() {
					c.Release(req.ID)
				})
			})
		})
	}
	return st
}

// Finish snapshots end-of-run ledger state into the stats. Call after the
// engine drains (departures may still be pending when the last arrival
// decides).
func (s *ChurnStats) Finish(c *Controller) {
	s.FinalMeanSubscription = c.alloc.ledger.MeanSubscription()
}
