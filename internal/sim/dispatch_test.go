package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// dispatched is one callback as the arrival-order test sees it: the
// event's canonical key and what ran.
type dispatched struct {
	at   time.Duration
	src  int32
	seq  uint64
	node int
	what string
	from node.ID
}

func (d dispatched) String() string {
	return fmt.Sprintf("%s@%d node=%d from=%d", d.what, d.at, d.node, d.from)
}

// TestArrivalOrderWithinTransmission pins the canonical dispatch order
// inside one transmission. A 10-node clique holds two senders (nodes 2
// and 6) that broadcast at boot; a jitter of 4 ns draws each arrival's
// delay from 4 values, so a transmission's arrivals come out scrambled
// against neighbor order and the two transmissions tie on arrival times.
// Every other node arms a timer at boot that ties with node 2's arrival
// there, so timers tie with arrivals from both lower and higher lanes.
// Each shard must dispatch exactly the reference sorted by
// (at, src, seq), restricted to its nodes, at S ∈ {1, 2, 4}.
func TestArrivalOrderWithinTransmission(t *testing.T) {
	const n, seed, jitter = 10, 11, 4
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: 1 + 0.1*float64(i%4), Y: 1 + 0.1*float64(i/4)}
	}
	g := topology.FromPositions(pos, 4, 1.0, geom.Planar)
	senders := map[int]bool{2: true, 6: true}

	// The reference: every Start at (0, i, 1); each sender's arrivals
	// from its medium stream, seqs 2, 3, ... in neighbor order; each
	// other node's timer at (arrival from node 2, i, 2).
	var ref []dispatched
	arrivalFrom2 := map[int]time.Duration{}
	scrambled := false
	for i := 0; i < n; i++ {
		ref = append(ref, dispatched{at: 0, src: int32(i), seq: 1, node: i, what: "start", from: node.ID(i)})
		if !senders[i] {
			continue
		}
		med := xrand.New(seed).Split(mediumLaneBase + uint64(i))
		prev := time.Duration(-1)
		for k, nb := range g.Neighbors(i) {
			at := time.Millisecond + time.Duration(med.Uint64n(jitter))
			if at < prev {
				scrambled = true
			}
			prev = at
			ref = append(ref, dispatched{at: at, src: int32(i), seq: uint64(k + 2), node: int(nb), what: "rx", from: node.ID(i)})
			if i == 2 {
				arrivalFrom2[int(nb)] = at
			}
		}
	}
	for i := 0; i < n; i++ {
		if !senders[i] {
			ref = append(ref, dispatched{at: arrivalFrom2[i], src: int32(i), seq: 2, node: i, what: "timer", from: node.ID(i)})
		}
	}
	if !scrambled {
		t.Fatal("jitter left every transmission in neighbor order; pick another seed")
	}
	slices.SortFunc(ref, func(a, b dispatched) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	ties := 0
	for i := 1; i < len(ref); i++ {
		if ref[i].at == ref[i-1].at && ref[i].at > 0 {
			ties++
		}
	}
	if ties < 4 {
		t.Fatalf("only %d time ties in the reference; the test needs tie-breaks to mean anything", ties)
	}

	for _, shards := range []int{1, 2, 4} {
		var eng *Engine
		logs := make([][]dispatched, shards)
		logAt := func(ctx node.Context, what string, from node.ID) {
			h := ctx.(*host)
			logs[h.sh.id] = append(logs[h.sh.id], dispatched{at: ctx.Now(), node: h.idx, what: what, from: from})
		}
		behaviors := make([]node.Behavior, n)
		for i := range behaviors {
			i := i
			behaviors[i] = behaviorFuncs{
				start: func(ctx node.Context) {
					logAt(ctx, "start", ctx.ID())
					if senders[i] {
						ctx.Broadcast([]byte{byte(i)})
						return
					}
					ctx.SetTimer(arrivalFrom2[i], 1)
				},
				receive: func(ctx node.Context, from node.ID, _ []byte) { logAt(ctx, "rx", from) },
				timer:   func(ctx node.Context, _ node.Tag) { logAt(ctx, "timer", ctx.ID()) },
			}
		}
		eng = newEngine(t, g, behaviors, Config{Seed: seed, Jitter: jitter, Shards: shards})
		eng.Boot(0)
		if _, err := eng.RunUntilIdle(0); err != nil {
			t.Fatal(err)
		}
		for k := range logs {
			var want []string
			for _, d := range ref {
				if eng.hosts[d.node].sh.id == k {
					want = append(want, d.String())
				}
			}
			got := make([]string, len(logs[k]))
			for i, d := range logs[k] {
				got[i] = d.String()
			}
			diffTraces(t, fmt.Sprintf("shards=%d shard %d", shards, k), want, got)
		}
	}
}

// accountingRun runs a lossy storm with a burst-loss plan, so some
// arrivals are shipped only for the plan to drop, and returns Run's
// return before and after the midpoint, Pending() at the midpoint, and
// sim_events_total at the end.
func accountingRun(t *testing.T, shards int) [4]int {
	t.Helper()
	g, err := topology.Generate(xrand.New(21), topology.Config{N: 60, Density: 8, Metric: geom.Torus})
	if err != nil {
		t.Fatal(err)
	}
	_, behaviors := newStorm(21, g.N())
	reg := obs.NewRegistry()
	eng, err := New(Config{
		Graph: g, Seed: 21, Shards: shards, Loss: 0.2, Jitter: 3 * time.Millisecond,
		Faults: &faults.Plan{Events: []faults.Event{
			{Kind: faults.KindBurst, At: 5 * time.Millisecond, Until: 60 * time.Millisecond, PGB: 0.3, PBG: 0.4, LossGood: 0.05, LossBad: 0.7},
		}},
		Obs: reg.Scope("accounting", 0),
	}, behaviors)
	if err != nil {
		t.Fatal(err)
	}
	eng.Boot(0)
	first := eng.Run(17 * time.Millisecond)
	pending := eng.Pending()
	second := eng.Run(time.Second)
	return [4]int{first, pending, second, int(eng.m.events.Value())}
}

// TestEventAccountingPinned pins what counts as one event: each arrival
// at a receiver, lost to Loss (under a fault plan) or not, is one event
// in Run's return, in Pending() and in sim_events_total, at every shard
// count. The numbers are the ones the engine reported when every arrival
// had an event record of its own.
func TestEventAccountingPinned(t *testing.T) {
	want := [4]int{1375, 374, 6768, 8143}
	for _, shards := range []int{1, 2, 4} {
		if got := accountingRun(t, shards); got != want {
			t.Fatalf("shards=%d: (Run to 17ms, Pending, Run to 1s, sim_events_total) = %v, want %v", shards, got, want)
		}
	}
}

// BenchmarkDispatchKeysetupShape measures the engine at the shape of a
// key-setup flood: a 20 000-node torus at density 10 (about ten
// receivers per frame) where every host holds one far-future phase
// timer, so each arrival is dispatched past a heap as deep as the node
// count. One op is one 48-byte broadcast from the next host and the
// dispatch of all its arrivals; ns/arrival divides by the receivers.
func BenchmarkDispatchKeysetupShape(b *testing.B) {
	g, err := topology.Generate(xrand.New(1), topology.Config{N: 20000, Density: 10, Metric: geom.Torus})
	if err != nil {
		b.Fatal(err)
	}
	sink := behaviorFuncs{
		start:   func(ctx node.Context) { ctx.SetTimer(1000*time.Hour, 1) },
		receive: func(node.Context, node.ID, []byte) {},
		timer:   func(node.Context, node.Tag) {},
	}
	behaviors := make([]node.Behavior, g.N())
	for i := range behaviors {
		behaviors[i] = sink
	}
	eng, err := New(Config{Graph: g, Seed: 1}, behaviors)
	if err != nil {
		b.Fatal(err)
	}
	eng.Boot(0)
	eng.Run(0)
	pkt := make([]byte, 48)
	next := 0
	arrivals := 0
	step := func() {
		eng.syncShardClocks()
		h := &eng.hosts[next]
		h.Broadcast(pkt)
		arrivals += len(g.Neighbors(next))
		next = (next + 1) % g.N()
		eng.Run(eng.Now() + 2*time.Millisecond)
	}
	for i := 0; i < 2000; i++ {
		step() // warm the pools and the heap's capacity
	}
	arrivals = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(arrivals, 1)), "ns/arrival")
}
