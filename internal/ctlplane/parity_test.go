package ctlplane

import (
	"math/rand"
	"reflect"
	"testing"

	"ufab/internal/chaos"
	"ufab/internal/placement"
	"ufab/internal/sim"
	"ufab/internal/topo"
)

// pickyMat is a Materializer that refuses every seventh tenant id, so both
// front-ends exercise the transaction's rollback at the same points.
type pickyMat struct{}

func (pickyMat) AddTenant(spec chaos.TenantSpec) bool { return spec.VF%7 != 0 }
func (pickyMat) RemoveTenant(int32) bool              { return true }

// TestControllerServiceParity drives one seeded request/release stream
// through the in-simulation Controller and a store-less Service configured
// alike. Both decide through placement.Allocator, so every decision —
// accept or reject, reason, hosts — and the per-link commitment and slot
// occupancy after every step must be identical. Request ids are unique:
// the one deliberate difference between the front-ends is that the
// Controller reports a duplicate id as "invalid".
func TestControllerServiceParity(t *testing.T) {
	cl := topo.NewClos(topo.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Cores: 2, HostsPerToR: 3,
		LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond,
	})
	for _, name := range []string{"first-fit", "spread", "subscription-aware"} {
		t.Run(name, func(t *testing.T) {
			eng := sim.New()
			ctl := placement.NewController(eng, cl.Graph, pickyMat{}, placement.Config{
				Policy: placement.PolicyByName(name), SlotsPerHost: 3, MaxPaths: 4,
			})
			svc := NewService(cl.Graph, nil, pickyMat{}, Config{
				Policy: placement.PolicyByName(name), SlotsPerHost: 3, maxPaths: 4,
			})
			rng := rand.New(rand.NewSource(15))
			var live []int32
			reasons := map[string]int{}
			for step := 0; step < 400; step++ {
				if len(live) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(live))
					id := live[i]
					live = append(live[:i], live[i+1:]...)
					if c, s := ctl.Release(id), svc.Release(id, int64(step)); !c || !s {
						t.Fatalf("step %d: release %d: controller %v, service %v", step, id, c, s)
					}
				} else {
					req := placement.Request{
						ID:           int32(step + 1),
						GuaranteeBps: []float64{5e8, 1e9, 3e9, 6e9, 6e9, 8e9, 0, -1}[rng.Intn(8)],
						VMs:          []int{1, 2, 2, 2, 3, 3, 4, 0, -3, 13, 1 << 40}[rng.Intn(11)],
						WeightClass:  rng.Intn(8),
						BacklogBytes: 4096,
					}
					var cd placement.Decision
					ctl.Submit(req, func(d placement.Decision) { cd = d })
					eng.Run()
					sd := svc.Admit(req, int64(step))
					if cd.Accepted != sd.Accepted || cd.Reason != sd.Reason || !reflect.DeepEqual(cd.Hosts, sd.Hosts) {
						t.Fatalf("step %d: %+v decided differently:\ncontroller %+v\n   service %+v", step, req, cd, sd)
					}
					if cd.Accepted {
						live = append(live, req.ID)
					}
					reasons[cd.Reason]++
				}
				for lid := range cl.Graph.Links {
					c := ctl.Ledger().CommittedBps(topo.LinkID(lid))
					if s := svc.Ledger().CommittedBps(topo.LinkID(lid)); c != s {
						t.Fatalf("step %d: link %d committed %v by the controller, %v by the service", step, lid, c, s)
					}
				}
				if !reflect.DeepEqual(ctl.Fleet().Used, svc.Fleet().Used) {
					t.Fatalf("step %d: slots diverged: %v vs %v", step, ctl.Fleet().Used, svc.Fleet().Used)
				}
			}
			// The stream must have reached every branch of the transaction.
			for _, r := range []string{"", "invalid", "placement", "headroom", "materialize"} {
				if reasons[r] == 0 {
					t.Errorf("the stream never produced reason %q: %v", r, reasons)
				}
			}
			if err := ctl.Ledger().Verify(); err != nil {
				t.Fatal(err)
			}
			if err := svc.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
