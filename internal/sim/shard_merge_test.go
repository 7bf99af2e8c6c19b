package sim

// Property-based tests for the sharded engine's cross-shard merge: a
// random event schedule — dense broadcast storms and timers quantized
// onto a coarse grid so timestamps collide constantly — must produce
// one canonical observable order (trace events, per-node reception
// sequences, timer firings) regardless of shard count, shard
// assignment, or goroutine interleaving. The Makefile race target runs
// this file under -race, so any unsynchronized cross-shard access
// shows up here too.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// stormNode floods the network with colliding traffic: on start it arms
// a timer on a quantized grid; every timer tick broadcasts a packet and
// re-arms; every reception is logged and rebroadcast while its TTL
// lasts. Quantizing all self-scheduled times to the same grid step
// forces many same-timestamp events across unrelated nodes — the merge
// collisions the canonical (time, source, sequence) key must resolve
// identically at every shard count.
type stormNode struct {
	idx      int
	rng      *xrand.RNG
	step     time.Duration
	ticks    int
	maxTicks int
	log      []string // owned by this node's shard; read after Run returns

	// eng, when set, turns the node unicast-heavy: a tick sends one
	// Engine.SendTo frame to each neighbor, and a relay goes to one
	// random neighbor.
	eng *Engine
}

func (s *stormNode) quantized(ctx node.Context) time.Duration {
	// 1-4 grid steps ahead, snapped to the grid so nodes collide.
	n := time.Duration(1 + s.rng.Intn(4))
	at := ctx.Now() + n*s.step
	return at.Truncate(s.step) - ctx.Now()
}

func (s *stormNode) Start(ctx node.Context) {
	s.log = append(s.log, fmt.Sprintf("start@%d", ctx.Now().Nanoseconds()))
	ctx.SetTimer(s.quantized(ctx), node.Tag(1))
}

func (s *stormNode) Receive(ctx node.Context, from node.ID, pkt []byte) {
	s.log = append(s.log, fmt.Sprintf("rx@%d from=%d ttl=%d len=%d",
		ctx.Now().Nanoseconds(), from, pkt[0], len(pkt)))
	if ttl := pkt[0]; ttl > 0 {
		fwd := append([]byte(nil), pkt...)
		fwd[0] = ttl - 1
		if s.eng == nil {
			ctx.Broadcast(fwd)
			return
		}
		nbs := s.eng.Graph().Neighbors(s.idx)
		s.eng.SendTo(s.idx, int(nbs[s.rng.Intn(len(nbs))]), fwd)
	}
}

func (s *stormNode) Timer(ctx node.Context, tag node.Tag) {
	s.ticks++
	s.log = append(s.log, fmt.Sprintf("timer@%d tag=%d", ctx.Now().Nanoseconds(), tag))
	pkt := []byte{1, byte(s.idx), byte(s.ticks)}
	if s.eng == nil {
		ctx.Broadcast(pkt)
	} else {
		for _, nb := range s.eng.Graph().Neighbors(s.idx) {
			s.eng.SendTo(s.idx, int(nb), pkt)
		}
	}
	if s.ticks < s.maxTicks {
		ctx.SetTimer(s.quantized(ctx), node.Tag(1))
	}
}

// newStorm builds n storm nodes with per-node streams derived from seed.
func newStorm(seed uint64, n int) ([]*stormNode, []node.Behavior) {
	nodes := make([]*stormNode, n)
	behaviors := make([]node.Behavior, n)
	for i := range nodes {
		nodes[i] = &stormNode{
			idx:      i,
			rng:      xrand.New(seed ^ uint64(i)*0x9e3779b97f4a7c15),
			step:     5 * time.Millisecond,
			maxTicks: 3,
		}
		behaviors[i] = nodes[i]
	}
	return nodes, behaviors
}

// stormTrace runs one storm, unicast-heavy when unicast is set, and
// returns its full observable history: the global trace in delivery
// order plus each node's private log.
func stormTrace(t *testing.T, seed uint64, n, shards int, cfg Config, unicast bool) []string {
	t.Helper()
	rng := xrand.New(seed)
	g, err := topology.Generate(rng, topology.Config{N: n, Density: 8, Metric: geom.Torus})
	if err != nil {
		t.Fatal(err)
	}
	nodes, behaviors := newStorm(seed, n)
	var trace []string
	cfg.Graph = g
	cfg.Seed = seed
	cfg.Shards = shards
	cfg.Trace = func(ev TraceEvent) {
		trace = append(trace, fmt.Sprintf("at=%d from=%d to=%d lost=%v pkt=%x",
			ev.At.Nanoseconds(), ev.From, ev.To, ev.Lost, ev.Pkt))
	}
	eng, err := New(cfg, behaviors)
	if err != nil {
		t.Fatal(err)
	}
	if unicast {
		for _, sn := range nodes {
			sn.eng = eng
		}
	}
	eng.Boot(0)
	eng.Run(120 * time.Millisecond)
	out := trace
	for i, sn := range nodes {
		for _, line := range sn.log {
			out = append(out, fmt.Sprintf("node=%d %s", i, line))
		}
	}
	return out
}

func diffTraces(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: trace length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: trace diverges at %d:\nwant %s\ngot  %s", label, i, want[i], got[i])
		}
	}
}

// TestShardMergeCanonicalOrder is the core property: for a table of
// seeds and radio configurations, broadcast and unicast-heavy, the
// observable history at shard counts 0, 2, 3, 4, and 7 is identical to
// the single-shard history — colliding timestamps, loss draws, jitter
// draws, collision corruption and all.
func TestShardMergeCanonicalOrder(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		unicast bool
	}{
		{"zero-jitter", Config{Jitter: 1}, false}, // everything lands on the grid
		{"default-jitter", Config{}, false},
		{"lossy", Config{Loss: 0.3}, false},
		{"collisions", Config{Collisions: true, Jitter: 3 * time.Millisecond}, false},
		{"unicast", Config{Loss: 0.1}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 42, 9001} {
				ref := stormTrace(t, seed, 60, 1, tc.cfg, tc.unicast)
				if len(ref) < 100 {
					t.Fatalf("seed %d: storm too quiet (%d events) to exercise the merge", seed, len(ref))
				}
				for _, shards := range []int{0, 2, 3, 4, 7} {
					got := stormTrace(t, seed, 60, shards, tc.cfg, tc.unicast)
					diffTraces(t, fmt.Sprintf("seed=%d shards=%d", seed, shards), ref, got)
				}
			}
		})
	}
}

// TestShardMergeInterleavingStability reruns the same sharded storm
// several times: with the schedule fixed, any divergence can only come
// from goroutine interleaving leaking into the merge — the bug class
// the per-epoch mailbox exchange plus canonical sort exists to prevent.
// Under -race this doubles as the harness that drives concurrent shard
// goroutines through every barrier path.
func TestShardMergeInterleavingStability(t *testing.T) {
	cfg := Config{Loss: 0.1, Jitter: 2 * time.Millisecond}
	ref := stormTrace(t, 7, 80, 4, cfg, false)
	for run := 1; run <= 4; run++ {
		got := stormTrace(t, 7, 80, 4, cfg, false)
		diffTraces(t, fmt.Sprintf("rerun %d", run), ref, got)
	}
}

// TestShardAssignmentIrrelevance pins the stronger contract: the merge
// order depends only on the canonical key, never on which shard owns a
// node. A round-robin assignment (pathological for locality — nearly
// every delivery crosses shards) must reproduce the stripe assignment's
// bytes exactly.
func TestShardAssignmentIrrelevance(t *testing.T) {
	seed := uint64(13)
	rng := xrand.New(seed)
	g, err := topology.Generate(rng, topology.Config{N: 50, Density: 8, Metric: geom.Torus})
	if err != nil {
		t.Fatal(err)
	}
	run := func(shardOf []int) []string {
		nodes, behaviors := newStorm(seed, g.N())
		var trace []string
		cfg := Config{
			Graph: g, Seed: seed, Shards: 3, ShardOf: shardOf, Loss: 0.2,
			Trace: func(ev TraceEvent) {
				trace = append(trace, fmt.Sprintf("at=%d from=%d to=%d lost=%v pkt=%x",
					ev.At.Nanoseconds(), ev.From, ev.To, ev.Lost, ev.Pkt))
			},
		}
		eng, err := New(cfg, behaviors)
		if err != nil {
			t.Fatal(err)
		}
		eng.Boot(0)
		eng.Run(120 * time.Millisecond)
		for i, sn := range nodes {
			for _, line := range sn.log {
				trace = append(trace, fmt.Sprintf("node=%d %s", i, line))
			}
		}
		return trace
	}
	roundRobin := make([]int, g.N())
	for i := range roundRobin {
		roundRobin[i] = i % 3
	}
	diffTraces(t, "round-robin vs stripes", run(nil), run(roundRobin))
}

// TestTraceReplayInTransmissionOrder pins the Trace stream's shape: with
// jitter wider than the epoch, so one broadcast's arrivals straddle
// barriers, and a burst-loss plan, whose verdicts land at the receivers,
// the hook sees transmission times that never step back, and each
// broadcast's deliveries together and in neighbor order.
func TestTraceReplayInTransmissionOrder(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{
		{Kind: faults.KindBurst, At: 10 * time.Millisecond, Until: 80 * time.Millisecond, PGB: 0.3, PBG: 0.4, LossGood: 0.05, LossBad: 0.7},
	}}
	for _, shards := range []int{1, 3} {
		g, err := topology.Generate(xrand.New(5), topology.Config{N: 60, Density: 8, Metric: geom.Torus})
		if err != nil {
			t.Fatal(err)
		}
		_, behaviors := newStorm(5, g.N())
		var trace []TraceEvent
		eng, err := New(Config{
			Graph: g, Seed: 5, Shards: shards, Loss: 0.1, Jitter: 3 * time.Millisecond, Faults: plan,
			Trace: func(ev TraceEvent) { trace = append(trace, ev) },
		}, behaviors)
		if err != nil {
			t.Fatal(err)
		}
		eng.Boot(0)
		if _, err := eng.RunUntilIdle(0); err != nil {
			t.Fatal(err)
		}
		want, lost := 0, 0
		for i := 0; i < g.N(); i++ {
			want += eng.Meter(i).TxCount() * len(g.Neighbors(i))
		}
		if len(trace) != want {
			t.Fatalf("shards=%d: %d trace events, want one per (transmission, neighbor) = %d", shards, len(trace), want)
		}
		done := map[[2]int64]bool{} // (At, From) runs already closed
		for i := 0; i < len(trace); {
			ev := trace[i]
			if i > 0 && ev.At < trace[i-1].At {
				t.Fatalf("shards=%d: trace steps back from %v to %v at %d", shards, trace[i-1].At, ev.At, i)
			}
			key := [2]int64{int64(ev.At), int64(ev.From)}
			if done[key] {
				t.Fatalf("shards=%d: broadcast from %d at %v split across the trace", shards, ev.From, ev.At)
			}
			done[key] = true
			// A run of one sender's transmissions at one time: whole
			// neighbor lists, back to back.
			nbs := g.Neighbors(int(ev.From))
			j := i
			for ; j < len(trace) && trace[j].At == ev.At && trace[j].From == ev.From; j++ {
				if k := (j - i) % len(nbs); trace[j].To != node.ID(nbs[k]) {
					t.Fatalf("shards=%d: delivery %d of the broadcast from %d went to %d, want neighbor %d", shards, j-i, ev.From, trace[j].To, nbs[k])
				}
				if trace[j].Lost {
					lost++
				}
			}
			if (j-i)%len(nbs) != 0 {
				t.Fatalf("shards=%d: broadcast from %d at %v traced %d deliveries for %d neighbors", shards, ev.From, ev.At, j-i, len(nbs))
			}
			i = j
		}
		if lost == 0 || lost == len(trace) {
			t.Fatalf("shards=%d: %d of %d deliveries lost; the plan and Loss should drop some, not all", shards, lost, len(trace))
		}
	}
}
