package sim

import (
	"slices"
	"testing"
	"time"

	"repro/internal/xrand"
)

func keyCmp(a, b *event) int {
	switch {
	case a.at != b.at:
		return int(a.at - b.at)
	case a.src != b.src:
		return int(a.src - b.src)
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// TestEventQueueMatchesSort drives the queue with random interleavings of
// pushes and pops — with heavily repeated times and lanes so ties are
// broken deep in the key — and checks every pop against a reference
// model: the minimum of the pending set under the (at, src, seq) order.
// The drained tail must come out in fully sorted order.
func TestEventQueueMatchesSort(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rng := xrand.New(seed)
		var q eventQueue
		var pending []*event
		var seq uint64
		coordinator := seed%2 == 0 // coordinator lane shape: src always 0
		for step := 0; step < 2000; step++ {
			if len(pending) > 0 && rng.Bool(0.4) {
				got := q.pop()
				i := 0
				for j := range pending {
					if keyCmp(pending[j], pending[i]) < 0 {
						i = j
					}
				}
				if got != pending[i] {
					t.Fatalf("seed %d step %d: popped (%v,%d,%d), want (%v,%d,%d)", seed, step,
						got.at, got.src, got.seq, pending[i].at, pending[i].src, pending[i].seq)
				}
				pending = slices.Delete(pending, i, i+1)
				continue
			}
			seq++
			ev := &event{at: time.Duration(rng.Uint64n(8)), seq: seq}
			if !coordinator {
				ev.src = int32(rng.Uint64n(4))
				ev.seq = rng.Uint64n(1 << 40) // lane counters need not be global
			}
			q.push(ev)
			pending = append(pending, ev)
		}
		slices.SortFunc(pending, keyCmp)
		for i, want := range pending {
			if got := q.pop(); got != want {
				t.Fatalf("seed %d drain %d: popped (%v,%d,%d), want (%v,%d,%d)", seed, i,
					got.at, got.src, got.seq, want.at, want.src, want.seq)
			}
		}
		if len(q) != 0 {
			t.Fatalf("seed %d: %d events left after drain", seed, len(q))
		}
	}
}

// BenchmarkEventQueue measures a steady-state push/pop pair on a queue
// holding 4096 pending events. That is shallower than key setup: on the
// perfbench keysetup workload (20 000 nodes, seed 1) the one heap held
// 22.7 k entries on average (2.6 k of them arrivals, the rest mostly
// far-future phase timers) and 64 k at most, before arrivals moved to
// transmission records. BenchmarkDispatchKeysetupShape measures that
// shape.
func BenchmarkEventQueue(b *testing.B) {
	const depth = 4096
	rng := xrand.New(3)
	evs := make([]event, depth)
	var q eventQueue
	for i := range evs {
		evs[i] = event{at: time.Duration(rng.Uint64n(1 << 20)), seq: uint64(i)}
		q.push(&evs[i])
	}
	seq := uint64(depth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.pop()
		seq++
		ev.at += time.Duration(rng.Uint64n(1 << 20))
		ev.seq = seq
		q.push(ev)
	}
}
