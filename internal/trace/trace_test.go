package trace

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/wire"
)

func TestPhasedValidation(t *testing.T) {
	if _, err := NewPhased([]string{"a"}, []time.Duration{time.Second}); err == nil {
		t.Fatal("mismatched names accepted")
	}
	if _, err := NewPhased([]string{"a", "b", "c"},
		[]time.Duration{2 * time.Second, time.Second}); err == nil {
		t.Fatal("non-increasing boundaries accepted")
	}
}

func TestRecordCollapsesBroadcasts(t *testing.T) {
	r := New()
	pkt := []byte{byte(wire.THello), 0, 0, 0, 0}
	// One broadcast from node 3 reaching four neighbors.
	for to := uint32(10); to < 14; to++ {
		r.record(sim.TraceEvent{At: time.Millisecond, From: 3, To: to, Size: len(pkt), Pkt: pkt})
	}
	// A second broadcast later.
	r.record(sim.TraceEvent{At: 2 * time.Millisecond, From: 3, To: 10, Size: len(pkt), Pkt: pkt})
	c := r.Total()[wire.THello]
	if c.Transmissions != 2 {
		t.Fatalf("transmissions = %d, want 2", c.Transmissions)
	}
	if c.Deliveries != 5 {
		t.Fatalf("deliveries = %d, want 5", c.Deliveries)
	}
	if c.Bytes != int64(2*len(pkt)) {
		t.Fatalf("bytes = %d", c.Bytes)
	}
}

func TestLostCounted(t *testing.T) {
	r := New()
	pkt := []byte{byte(wire.TData)}
	r.record(sim.TraceEvent{At: 1, From: 1, To: 2, Size: 1, Pkt: pkt, Lost: true})
	r.record(sim.TraceEvent{At: 1, From: 1, To: 3, Size: 1, Pkt: pkt})
	c := r.Total()[wire.TData]
	if c.Lost != 1 || c.Deliveries != 1 || c.Transmissions != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestPhaseBucketing(t *testing.T) {
	r, err := NewPhased([]string{"setup", "data"}, []time.Duration{time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hello := []byte{byte(wire.THello)}
	data := []byte{byte(wire.TData)}
	r.record(sim.TraceEvent{At: 500 * time.Millisecond, From: 1, To: 2, Size: 1, Pkt: hello})
	r.record(sim.TraceEvent{At: 1500 * time.Millisecond, From: 1, To: 2, Size: 1, Pkt: data})
	if c := r.Phase("setup")[wire.THello]; c.Transmissions != 1 {
		t.Fatalf("setup hello = %+v", c)
	}
	if c := r.Phase("setup")[wire.TData]; c.Transmissions != 0 {
		t.Fatalf("setup data = %+v", c)
	}
	if c := r.Phase("data")[wire.TData]; c.Transmissions != 1 {
		t.Fatalf("data phase = %+v", c)
	}
	if r.Phase("nope") != nil {
		t.Fatal("unknown phase returned data")
	}
}

// TestFullRunAccounting attaches a recorder to a real deployment and
// checks the message accounting against the protocol's known structure,
// at one and at two shards: a broadcast whose arrivals straddle an epoch
// barrier must still count as one transmission.
func TestFullRunAccounting(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fullRunAccounting(t, shards)
		})
	}
}

func fullRunAccounting(t *testing.T, shards int) {
	cfg := core.DefaultConfig()
	rec, err := NewPhased([]string{"setup", "operational"}, []time.Duration{cfg.ClusterPhaseEnd + cfg.LinkSpread + 50*time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Deploy(core.DeployOptions{
		N: 150, Density: 10, Seed: 77, Shards: shards, Trace: rec.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	d.SendReading(42, d.Eng.Now()+10*time.Millisecond, []byte("x"))
	if _, err := d.Eng.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}

	setup := rec.Phase("setup")
	st := d.Clusters()
	// Exactly one HELLO per clusterhead...
	if got := setup[wire.THello].Transmissions; got != st.Heads {
		t.Fatalf("HELLO transmissions %d, want %d heads", got, st.Heads)
	}
	// ...and exactly one LINK-ADVERT per node.
	if got := setup[wire.TLinkAdvert].Transmissions; got != 150 {
		t.Fatalf("LINK-ADVERT transmissions %d, want 150", got)
	}
	// No data traffic during setup; beacons and data come after.
	if got := setup[wire.TData].Transmissions; got != 0 {
		t.Fatalf("data during setup: %d", got)
	}
	op := rec.Phase("operational")
	if op[wire.TBeacon].Transmissions == 0 {
		t.Fatal("no beacon traffic recorded")
	}
	if op[wire.TData].Transmissions == 0 {
		t.Fatal("no data traffic recorded")
	}
	if rec.Transmissions() == 0 {
		t.Fatal("total transmissions zero")
	}
	report := rec.Report()
	for _, want := range []string{"HELLO", "LINK-ADVERT", "BEACON", "DATA", "TOTAL", `phase "setup"`} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// TestPhaseBoundaryExact pins the half-open bucketing contract: an
// event at exactly the cutoff belongs to the next phase (phase i covers
// [boundary(i-1), boundary(i))), and one a nanosecond earlier to the
// previous.
func TestPhaseBoundaryExact(t *testing.T) {
	r, err := NewPhased([]string{"setup", "data"}, []time.Duration{time.Second})
	if err != nil {
		t.Fatal(err)
	}
	pkt := []byte{byte(wire.THello)}
	r.record(sim.TraceEvent{At: time.Second - time.Nanosecond, From: 1, To: 2, Size: 1, Pkt: pkt})
	r.record(sim.TraceEvent{At: time.Second, From: 3, To: 4, Size: 1, Pkt: pkt})
	if c := r.Phase("setup")[wire.THello]; c.Transmissions != 1 || c.Deliveries != 1 {
		t.Fatalf("setup = %+v, want exactly the pre-cutoff event", c)
	}
	if c := r.Phase("data")[wire.THello]; c.Transmissions != 1 || c.Deliveries != 1 {
		t.Fatalf("data = %+v, want exactly the on-cutoff event", c)
	}
}

// TestZeroDurationFirstPhase: a first boundary of zero is legal and
// makes the first phase an empty [0, 0) window, so even an event at
// t=0 lands in the second phase.
func TestZeroDurationFirstPhase(t *testing.T) {
	r, err := NewPhased([]string{"empty", "rest"}, []time.Duration{0})
	if err != nil {
		t.Fatal(err)
	}
	pkt := []byte{byte(wire.TData)}
	r.record(sim.TraceEvent{At: 0, From: 1, To: 2, Size: 1, Pkt: pkt})
	if c := r.Phase("empty")[wire.TData]; c.Transmissions != 0 {
		t.Fatalf("zero-width phase caught an event: %+v", c)
	}
	if c := r.Phase("rest")[wire.TData]; c.Transmissions != 1 {
		t.Fatalf("rest = %+v, want the t=0 event", c)
	}
	if strings.Contains(r.Report(), `phase "empty"`) {
		t.Fatal("report printed an empty phase block")
	}
}

// TestEqualBoundariesRejected: two identical boundaries would create an
// unreachable zero-width middle phase; NewPhased must refuse them.
func TestEqualBoundariesRejected(t *testing.T) {
	if _, err := NewPhased([]string{"a", "b", "c"},
		[]time.Duration{time.Second, time.Second}); err == nil {
		t.Fatal("equal boundaries accepted")
	}
}
