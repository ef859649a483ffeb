package chaos

import (
	"reflect"
	"strings"
	"testing"

	"ufab/internal/dataplane"
	"ufab/internal/sim"
	"ufab/internal/topo"
)

func TestKindTextRoundTrip(t *testing.T) {
	for k, name := range kindNames {
		b, err := k.MarshalText()
		if err != nil || string(b) != name {
			t.Errorf("%v.MarshalText() = %q, %v", k, b, err)
		}
		var got Kind
		if err := got.UnmarshalText(b); err != nil || got != k {
			t.Errorf("UnmarshalText(%q) = %v, %v", b, got, err)
		}
	}
	if _, err := Kind(99).MarshalText(); err == nil {
		t.Error("unknown kind marshaled")
	}
	var k Kind
	if err := k.UnmarshalText([]byte("link-melt")); err == nil {
		t.Error("unknown kind name unmarshaled")
	}
	if s := Kind(99).String(); s != "kind(99)" {
		t.Errorf("Kind(99).String() = %q", s)
	}
}

// fullScenario exercises every builder once.
func fullScenario() *Scenario {
	return New("everything").
		CrashNode(sim.Millisecond, 3).
		RecoverNode(2*sim.Millisecond, 3).
		LinkDown(3*sim.Millisecond, 0, true).
		LinkUp(4*sim.Millisecond, 0, true).
		Degrade(5*sim.Millisecond, 1, false, dataplane.Degradation{
			CapacityScale: 0.5, ExtraDelay: 30 * sim.Microsecond,
			LossProb: 0.01, ProbeDropProb: 0.2, ProbeCorruptProb: 0.1,
		}).
		Restore(6*sim.Millisecond, 1, false).
		RestartAgent(7*sim.Millisecond, 2).
		ArriveTenant(8*sim.Millisecond, TenantSpec{
			VF: 7, GuaranteeBps: 2e9, WeightClass: 3,
			Pairs: []PairSpec{{Src: 4, Dst: 5, BacklogBytes: 1 << 20}},
		}).
		DepartTenant(9*sim.Millisecond, 7)
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	s := fullScenario()
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip lost data:\n%+v\nvs\n%+v", s, got)
	}
	// The wire format uses kind names, not raw codes.
	if !strings.Contains(string(b), `"link-degrade"`) {
		t.Errorf("encoded scenario lacks kind name:\n%s", b)
	}
}

func TestParseRejections(t *testing.T) {
	if _, err := Parse([]byte(`{nope`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := Parse([]byte(`{"name":"x","events":[{"at_ps":-1,"kind":"link-down"}]}`)); err == nil {
		t.Error("negative event time accepted")
	}
	if _, err := Parse([]byte(`{"name":"x","events":[{"at_ps":1,"kind":"link-melt"}]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestFlapBuilder(t *testing.T) {
	s := New("flap").Flap(10*sim.Millisecond, 3, true, 2, 4*sim.Millisecond, sim.Millisecond)
	want := []struct {
		at   sim.Duration
		kind Kind
	}{
		{10 * sim.Millisecond, LinkDown},
		{11 * sim.Millisecond, linkUp},
		{14 * sim.Millisecond, LinkDown},
		{15 * sim.Millisecond, linkUp},
	}
	if len(s.Events) != len(want) {
		t.Fatalf("%d events, want %d", len(s.Events), len(want))
	}
	for i, w := range want {
		ev := s.Events[i]
		if ev.At != w.at || ev.Kind != w.kind || ev.Link != 3 || !ev.Duplex {
			t.Errorf("event %d = %+v, want at=%v kind=%v link=3 duplex", i, ev, w.at, w.kind)
		}
	}
}

// fakeTarget wraps a real engine and dataplane (link/node fault state
// lives there) with scripted agent/tenant hooks.
type fakeTarget struct {
	eng       *sim.Engine
	net       *dataplane.Network
	restarts  []topo.NodeID
	restartOK bool
	tenants   map[int32]bool
}

func newFakeTarget() (*fakeTarget, *topo.Star) {
	eng := sim.New()
	st := topo.NewStar(2, topo.Gbps(10), sim.Microsecond)
	return &fakeTarget{
		eng: eng, net: dataplane.New(eng, st.Graph, dataplane.Config{}),
		restartOK: true, tenants: map[int32]bool{},
	}, st
}

func (f *fakeTarget) Engine() sim.Scheduler       { return f.eng }
func (f *fakeTarget) Network() *dataplane.Network { return f.net }
func (f *fakeTarget) RestartCoreAgent(n topo.NodeID) bool {
	f.restarts = append(f.restarts, n)
	return f.restartOK
}
func (f *fakeTarget) AddTenant(s TenantSpec) bool {
	if f.tenants[s.VF] {
		return false
	}
	f.tenants[s.VF] = true
	return true
}
func (f *fakeTarget) RemoveTenant(vf int32) bool {
	if !f.tenants[vf] {
		return false
	}
	delete(f.tenants, vf)
	return true
}

func TestInjectorAppliesInOrder(t *testing.T) {
	tgt, st := newFakeTarget()
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	lid := route[0]
	s := New("happy").
		LinkDown(sim.Millisecond, lid, true).
		Degrade(2*sim.Millisecond, lid, true, dataplane.Degradation{LossProb: 0.1}).
		LinkUp(3*sim.Millisecond, lid, true).
		Restore(4*sim.Millisecond, lid, true).
		CrashNode(5*sim.Millisecond, st.Center).
		RecoverNode(6*sim.Millisecond, st.Center).
		RestartAgent(7*sim.Millisecond, st.Center).
		ArriveTenant(8*sim.Millisecond, TenantSpec{VF: 1, GuaranteeBps: 1e9}).
		DepartTenant(9*sim.Millisecond, 1)

	inj := Inject(tgt, s)
	// Mid-run, fault state must actually toggle.
	tgt.eng.At(sim.Millisecond+1, func() {
		if !tgt.net.LinkFailed(lid) {
			t.Error("link not down after LinkDown")
		}
	})
	tgt.eng.At(5*sim.Millisecond+1, func() {
		if !tgt.net.Failed(st.Center) {
			t.Error("node not failed after NodeCrash")
		}
	})
	tgt.eng.Run()

	if len(inj.Log) != len(s.Events) {
		t.Fatalf("log has %d records, want %d", len(inj.Log), len(s.Events))
	}
	for i, rec := range inj.Log {
		ev := s.Events[i]
		if !rec.OK {
			t.Errorf("record %d rejected: %s", i, rec)
		}
		if rec.At != sim.Time(ev.At) || rec.Kind != ev.Kind {
			t.Errorf("record %d = %s, want kind %v at %v", i, rec, ev.Kind, ev.At)
		}
	}
	for _, k := range []Kind{NodeCrash, NodeRecover, LinkDown, linkUp, LinkDegrade,
		linkRestore, AgentRestart, TenantArrive, TenantDepart} {
		if inj.Applied(k) != 1 {
			t.Errorf("Applied(%v) = %d, want 1", k, inj.Applied(k))
		}
	}
	if inj.Rejected() != 0 {
		t.Errorf("Rejected() = %d", inj.Rejected())
	}
	if tgt.net.LinkFailed(lid) || tgt.net.LinkDegraded(lid) || tgt.net.Failed(st.Center) {
		t.Error("fault state not cleared by the recovery events")
	}
	if len(tgt.restarts) != 1 || tgt.restarts[0] != st.Center {
		t.Errorf("restarts = %v", tgt.restarts)
	}
	if len(tgt.tenants) != 0 {
		t.Errorf("tenants left behind: %v", tgt.tenants)
	}
}

func TestInjectorRecordsRejections(t *testing.T) {
	tgt, st := newFakeTarget()
	tgt.restartOK = false
	nLinks := len(st.Graph.Links)
	s := New("broken").
		LinkDown(sim.Millisecond, topo.LinkID(nLinks), false). // out of range
		CrashNode(2*sim.Millisecond, topo.NodeID(-5)).         // out of range
		RestartAgent(3*sim.Millisecond, st.Center).            // target refuses
		DepartTenant(4*sim.Millisecond, 42)                    // unknown VF
	// Events with missing parameters.
	s.add(Event{At: 5 * sim.Millisecond, Kind: LinkDegrade, Link: 0})
	s.add(Event{At: 6 * sim.Millisecond, Kind: TenantArrive, Note: "no spec"})

	inj := Inject(tgt, s)
	tgt.eng.Run()
	if got := inj.Rejected(); got != len(s.Events) {
		t.Fatalf("Rejected() = %d, want %d:\n%v", got, len(s.Events), inj.Log)
	}
	for i, rec := range inj.Log {
		if rec.OK {
			t.Errorf("record %d not rejected: %s", i, rec)
		}
	}
	// The rendered log flags the rejection and carries the note.
	last := inj.Log[len(inj.Log)-1].String()
	if !strings.Contains(last, "REJECTED") || !strings.Contains(last, "no spec") {
		t.Errorf("rendered record = %q", last)
	}
}

func TestInjectOffsetsFromNow(t *testing.T) {
	// Injecting mid-run schedules events relative to the current time.
	tgt, st := newFakeTarget()
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	var inj *Injector
	tgt.eng.At(10*sim.Millisecond, func() {
		inj = Inject(tgt, New("late").LinkDown(sim.Millisecond, route[0], false))
	})
	tgt.eng.Run()
	if len(inj.Log) != 1 || inj.Log[0].At != 11*sim.Millisecond {
		t.Fatalf("log = %v, want one record at 11ms", inj.Log)
	}
}
