package ctlplane

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"ufab/internal/audit"
	"ufab/internal/placement"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
	"ufab/internal/vfabric"
)

// DaemonConfig parameterizes `ufabsim serve`.
type DaemonConfig struct {
	// Addr is the northbound listen address (default 127.0.0.1:7663).
	Addr string
	// StoreDir is where the WAL + snapshot live ("" = in-memory only).
	StoreDir string
	// Seed drives the fabric and the optional churn generator.
	Seed int64
	// TickEvery is the wall-clock tick period (default 10 ms); each tick
	// advances the simulation by quantum.
	TickEvery time.Duration
	// Churn, when true, runs an open-loop background tenant workload so
	// the daemon has something to reconcile.
	Churn bool
	// Policy names the placement policy (default "spread").
	Policy string
	// Oversubscription scales the admission budget (0 = 1.0).
	Oversubscription float64
	// SlotsPerHost caps VMs per host (0 = 4).
	SlotsPerHost int
}

// The daemon's simulated cadence.
const (
	// quantum is how much simulated time advances per wall tick.
	quantum = sim.Millisecond
	// reconcilePeriod is the reconciler's sim-time cadence.
	reconcilePeriod = 500 * sim.Microsecond
)

// Northbound HTTP server limits. There is deliberately no write timeout:
// /v1/findings?follow=1 is a stream.
const (
	// readHeaderTimeout bounds how long a connection may dribble its
	// request line and headers.
	readHeaderTimeout = 5 * time.Second
	// idleTimeout closes keep-alive connections nobody uses.
	idleTimeout = 2 * time.Minute
	// shutdownGrace bounds how long Stop waits for in-flight requests to
	// be answered before the engine loop exits.
	shutdownGrace = 5 * time.Second
)

// Daemon is the always-on control plane: a simulated Clos fabric advanced
// in wall-clock ticks, the Service reconciling over it, and the
// northbound HTTP API. Every mutation — HTTP handler or timer — runs on
// the single engine goroutine via Do, so the simulation stays
// deterministic and lock-free inside.
type Daemon struct {
	Cfg DaemonConfig

	Eng   *sim.Engine
	Clos  *topo.Clos
	UF    *vfabric.Fabric
	Svc   *Service
	Reg   *telemetry.Registry
	Audit *audit.Log

	ops chan op
	// Stop closes draining first (findings streams end, the HTTP server
	// shuts down while the loop still answers in-flight requests), then
	// quit (the loop exits); the loop closes done.
	draining chan struct{}
	quit     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	srv      *http.Server

	findingsMu   sync.Mutex
	findingsSubs map[chan audit.Finding]struct{}

	rng    *rand.Rand
	nextID int32
	live   []int32 // churn tenants currently admitted
}

// NewDaemon builds the daemon: a 32-host 3-tier Clos fabric with
// telemetry and the auditor attached, the persistent store opened (and
// recovered) from cfg.StoreDir, and the service wired ledger→auditor.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:7663"
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 10 * time.Millisecond
	}
	if cfg.Policy == "" {
		cfg.Policy = "spread"
	}
	if cfg.SlotsPerHost == 0 {
		cfg.SlotsPerHost = 4
	}
	pol := placement.PolicyByName(cfg.Policy)
	if pol == nil {
		return nil, fmt.Errorf("ctlplane: unknown policy %q", cfg.Policy)
	}

	d := &Daemon{
		Cfg:          cfg,
		Eng:          sim.New(),
		Reg:          telemetry.New(),
		Audit:        &audit.Log{},
		ops:          make(chan op, 64),
		draining:     make(chan struct{}),
		quit:         make(chan struct{}),
		done:         make(chan struct{}),
		findingsSubs: make(map[chan audit.Finding]struct{}),
		rng:          stats.NewRand(cfg.Seed ^ 0x63746c64), // "ctld"
		nextID:       1000,
	}
	d.Reg.EnableRecorder(0)
	d.Audit.Subscribe(d.broadcastFinding)

	d.Clos = topo.NewClos(topo.ClosConfig{
		Pods: 4, ToRsPerPod: 2, AggsPerPod: 2, Cores: 4, HostsPerToR: 4,
		LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond,
	})
	ufCfg := vfabric.Config{
		Seed:      cfg.Seed,
		Telemetry: d.Reg,
		Audit:     &audit.Config{Log: d.Audit},
	}
	ufCfg.Core.CleanupPeriod = 5 * sim.Millisecond
	// The daemon's fabric comes from the same construction path as the
	// experiments and fuzzer; the daemon owns the engine loop, and the
	// pod shards run inline on its goroutine (no workers).
	uf, err := vfabric.Build(vfabric.BuildOptions{Graph: d.Clos.Graph, Cfg: ufCfg, Eng: d.Eng})
	if err != nil {
		return nil, fmt.Errorf("ctlplane: build fabric: %w", err)
	}
	d.UF = uf
	d.UF.StartCoreCleanup()

	var store *Store
	if cfg.StoreDir != "" {
		var err error
		if store, err = Open(cfg.StoreDir); err != nil {
			return nil, err
		}
	}
	d.Svc = NewService(d.Clos.Graph, store, d.UF, Config{
		Oversubscription: cfg.Oversubscription,
		SlotsPerHost:     cfg.SlotsPerHost,
		Policy:           pol,
		Telemetry:        d.Reg,
	})
	d.Svc.WatchRecorder(d.Reg.Recorder())
	d.UF.Cfg.Ledger = d.Svc.Ledger()
	if err := d.Svc.Recover(int64(d.Eng.Now())); err != nil {
		return nil, fmt.Errorf("ctlplane: recover: store and ledger disagree: %w", err)
	}
	d.Svc.StartReconciler(d.Eng, reconcilePeriod)
	d.UF.StartSampling(250 * sim.Microsecond)
	if cfg.Churn {
		d.Eng.Every(200*sim.Microsecond, d.churnTick)
	}
	d.srv = &http.Server{
		Handler:           d.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	return d, nil
}

// churnTick admits/releases one random tenant per tick — enough load that
// the reconciler, auditor and store all have work between API calls.
func (d *Daemon) churnTick() {
	now := int64(d.Eng.Now())
	if len(d.live) < 24 && d.rng.Intn(2) == 0 {
		id := d.nextID
		d.nextID++
		g := []float64{5e8, 1e9, 2e9}[d.rng.Intn(3)]
		dec := d.Svc.Admit(placement.Request{
			ID: id, GuaranteeBps: g, VMs: 2 + d.rng.Intn(2),
			WeightClass: 3, BacklogBytes: 256 << 10,
		}, now)
		if dec.Accepted {
			d.live = append(d.live, id)
		}
	} else if len(d.live) > 0 {
		i := d.rng.Intn(len(d.live))
		d.Svc.Release(d.live[i], now)
		d.live = append(d.live[:i], d.live[i+1:]...)
	}
}

// op is one operation handed to the engine goroutine: f, and the channel
// that signals it ran.
type op struct {
	f    func()
	done chan struct{}
}

// doneChans recycles op.done channels (buffer 1, signalled by a send).
var doneChans = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

func (o op) run() {
	o.f()
	o.done <- struct{}{}
}

// Do runs f on the engine goroutine and waits for it — the only way HTTP
// handlers may touch the simulation, the service or the registry. Code
// already running on the engine goroutine must call f directly instead.
// It reports whether f ran: false means the daemon stopped first.
func (d *Daemon) Do(f func()) bool {
	done := doneChans.Get().(chan struct{})
	select {
	case d.ops <- op{f, done}:
	case <-d.quit:
		return false
	}
	select {
	case <-done:
		// Received: the channel is empty again and nobody else holds it.
		doneChans.Put(done)
		return true
	case <-d.done:
		// The loop signals before it exits, so a run is visible here.
		// The channel is not recycled: the op may still sit in d.ops.
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// Loop is the engine goroutine: wall ticks advance simulated time by one
// quantum, interleaved with serialized API operations. It returns when
// Stop is called.
func (d *Daemon) Loop() {
	defer close(d.done)
	ticker := time.NewTicker(d.Cfg.TickEvery)
	defer ticker.Stop()
	for {
		select {
		case o := <-d.ops:
			o.run()
		case <-ticker.C:
			d.Eng.RunUntil(d.Eng.Now() + quantum)
		case <-d.quit:
			// Drain operations that raced the shutdown.
			for {
				select {
				case o := <-d.ops:
					o.run()
				default:
					return
				}
			}
		}
	}
}

// Stop shuts the daemon down in order: the HTTP server stops accepting
// and its in-flight requests are answered (bounded by shutdownGrace) while
// the loop still runs, then the loop exits and the store is snapshotted
// and closed. Safe to call more than once; every call returns after the
// shutdown has completed.
func (d *Daemon) Stop() {
	d.stopOnce.Do(func() {
		close(d.draining)
		// A no-op unless ListenAndServe is serving; on timeout the
		// stragglers are cut when the process exits.
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		_ = d.srv.Shutdown(ctx)
		cancel()
		close(d.quit)
		<-d.done
		if st := d.Svc.Store(); st != nil {
			_ = st.Snapshot()
			_ = st.Close()
		}
	})
}

// broadcastFinding fans a finding out to the streaming subscribers
// without blocking the auditor (slow subscribers lose events).
func (d *Daemon) broadcastFinding(f audit.Finding) {
	d.findingsMu.Lock()
	for ch := range d.findingsSubs {
		select {
		case ch <- f:
		default:
		}
	}
	d.findingsMu.Unlock()
}

// subscribeFindings registers a streaming findings subscriber; the
// returned cancel must be called when the stream ends.
func (d *Daemon) subscribeFindings() (ch chan audit.Finding, cancel func()) {
	ch = make(chan audit.Finding, 64)
	d.findingsMu.Lock()
	d.findingsSubs[ch] = struct{}{}
	d.findingsMu.Unlock()
	return ch, func() {
		d.findingsMu.Lock()
		delete(d.findingsSubs, ch)
		d.findingsMu.Unlock()
	}
}

// ListenAndServe runs the daemon: engine loop in the background, HTTP in
// the foreground until the listener fails or Stop is called; after a Stop
// it returns once the shutdown has completed. ready, if non-nil, receives
// the bound address (useful with ":0").
func (d *Daemon) ListenAndServe(ready chan<- string) error {
	ln, err := net.Listen("tcp", d.Cfg.Addr)
	if err != nil {
		return err
	}
	go d.Loop()
	if ready != nil {
		ready <- ln.Addr().String()
	}
	if err := d.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	d.Stop() // wait out the Stop that closed the server
	return nil
}
