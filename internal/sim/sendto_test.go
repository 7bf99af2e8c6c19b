package sim

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/node"
)

// sendToRun runs a 3-node line 0-1-2 in which node 1 unicasts frames
// packets of size bytes to node 2, one per millisecond, from its own
// Do callbacks.
func sendToRun(t *testing.T, cfg Config, frames, size int) (*Engine, []*echo, []TraceEvent) {
	t.Helper()
	bs := []*echo{{}, {}, {}}
	var trace []TraceEvent
	cfg.Trace = func(ev TraceEvent) { trace = append(trace, ev) }
	eng := newEngine(t, lineGraph(3), []node.Behavior{bs[0], bs[1], bs[2]}, cfg)
	eng.Boot(0)
	for k := 0; k < frames; k++ {
		eng.Do(time.Duration(k+1)*time.Millisecond, 1, func(node.Context) {
			eng.SendTo(1, 2, make([]byte, size))
		})
	}
	if _, err := eng.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	return eng, bs, trace
}

// TestSendToReachesOnlyTarget checks that a unicast is a broadcast with
// one receiver: only the addressed neighbor hears it, the trace reports
// one delivery per frame, and the sender pays Tx once per frame.
func TestSendToReachesOnlyTarget(t *testing.T) {
	const frames, size = 4, 24
	eng, bs, trace := sendToRun(t, Config{}, frames, size)
	if len(bs[2].received) != frames || len(bs[0].received) != 0 {
		t.Fatalf("node 2 received %d, node 0 %d; want %d and 0", len(bs[2].received), len(bs[0].received), frames)
	}
	if len(trace) != frames {
		t.Fatalf("trace saw %d deliveries for %d unicasts", len(trace), frames)
	}
	for _, ev := range trace {
		if ev.From != 1 || ev.To != 2 || ev.Size != size || ev.Lost {
			t.Fatalf("trace event %+v, want one delivery 1→2 of %d bytes", ev, size)
		}
	}
	if m := eng.Meter(1); m.TxCount() != frames || m.Tx() <= 0 {
		t.Fatalf("sender meter %v, want %d transmissions", m, frames)
	}
	if eng.Meter(2).RxCount() != frames || eng.Meter(0).RxCount() != 0 {
		t.Fatalf("target meter %v, bystander meter %v", eng.Meter(2), eng.Meter(0))
	}
}

// TestSendToMeetsFaultPlan checks that a fault-plan drop at the target
// discards a unicast and that the trace marks it lost, while the sender
// still pays for the transmission.
func TestSendToMeetsFaultPlan(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{{
		Kind: faults.KindBurst, At: 0, Until: time.Second,
		Nodes: []int{2}, LossGood: 1, LossBad: 1,
	}}}
	eng, bs, trace := sendToRun(t, Config{Faults: plan}, 3, 8)
	if len(bs[2].received) != 0 {
		t.Fatalf("target received %d unicasts through a total burst", len(bs[2].received))
	}
	if len(trace) != 3 {
		t.Fatalf("trace saw %d deliveries, want 3", len(trace))
	}
	for _, ev := range trace {
		if !ev.Lost || ev.To != 2 {
			t.Fatalf("trace event %+v, want a lost delivery to 2", ev)
		}
	}
	if eng.Meter(1).TxCount() != 3 {
		t.Fatalf("sender charged %d transmissions, want 3", eng.Meter(1).TxCount())
	}
}
