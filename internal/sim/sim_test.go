package sim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// echo is a test behavior: broadcasts a greeting on start, counts
// receptions, and optionally rebroadcasts once.
type echo struct {
	started     int
	received    []node.ID
	packets     [][]byte
	timers      []node.Tag
	rebroadcast bool
	sendOnStart []byte
}

func (e *echo) Start(ctx node.Context) {
	e.started++
	if e.sendOnStart != nil {
		ctx.Broadcast(e.sendOnStart)
	}
}

func (e *echo) Receive(ctx node.Context, from node.ID, pkt []byte) {
	e.received = append(e.received, from)
	e.packets = append(e.packets, append([]byte(nil), pkt...))
	if e.rebroadcast {
		e.rebroadcast = false
		ctx.Broadcast(pkt)
	}
}

func (e *echo) Timer(ctx node.Context, tag node.Tag) {
	e.timers = append(e.timers, tag)
}

// lineGraph builds a path topology 0-1-2-...-(n-1).
func lineGraph(n int) *topology.Graph {
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i), Y: 0}
	}
	return topology.FromPositions(pos, float64(n+1), 1.1, geom.Planar)
}

func newEngine(t *testing.T, g *topology.Graph, behaviors []node.Behavior, cfg Config) *Engine {
	t.Helper()
	cfg.Graph = g
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	eng, err := New(cfg, behaviors)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestBroadcastReachesNeighborsOnly(t *testing.T) {
	g := lineGraph(4)
	bs := []*echo{{sendOnStart: []byte("hi")}, {}, {}, {}}
	behaviors := make([]node.Behavior, 4)
	for i, b := range bs {
		behaviors[i] = b
	}
	eng := newEngine(t, g, behaviors, Config{})
	eng.Boot(0)
	if _, err := eng.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if len(bs[1].received) != 1 || bs[1].received[0] != 0 {
		t.Fatalf("node 1 received %v", bs[1].received)
	}
	if len(bs[2].received) != 0 || len(bs[3].received) != 0 {
		t.Fatal("broadcast leaked beyond radio range")
	}
	if string(bs[1].packets[0]) != "hi" {
		t.Fatalf("payload = %q", bs[1].packets[0])
	}
}

func TestMultiHopViaRebroadcast(t *testing.T) {
	g := lineGraph(5)
	bs := make([]*echo, 5)
	behaviors := make([]node.Behavior, 5)
	for i := range bs {
		bs[i] = &echo{rebroadcast: i > 0}
		behaviors[i] = bs[i]
	}
	bs[0].sendOnStart = []byte("wave")
	eng := newEngine(t, g, behaviors, Config{})
	eng.Boot(0)
	if _, err := eng.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if len(bs[4].received) == 0 {
		t.Fatal("message never reached the end of the line")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []node.ID {
		g := lineGraph(6)
		bs := make([]*echo, 6)
		behaviors := make([]node.Behavior, 6)
		for i := range bs {
			bs[i] = &echo{rebroadcast: true}
			behaviors[i] = bs[i]
		}
		bs[0].sendOnStart = []byte("x")
		bs[3].sendOnStart = []byte("y")
		eng := newEngine(t, g, behaviors, Config{Seed: 42, Loss: 0.1})
		eng.Boot(0)
		if _, err := eng.RunUntilIdle(10000); err != nil {
			t.Fatal(err)
		}
		var log []node.ID
		for _, b := range bs {
			log = append(log, b.received...)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery order diverged at %d", i)
		}
	}
}

func TestTimersFireInOrder(t *testing.T) {
	g := lineGraph(1)
	b := &echo{}
	eng := newEngine(t, g, []node.Behavior{b}, Config{})
	eng.Boot(0)
	eng.Schedule(0, func() {
		h := &eng.hosts[0]
		h.SetTimer(30*time.Millisecond, 3)
		h.SetTimer(10*time.Millisecond, 1)
		h.SetTimer(20*time.Millisecond, 2)
	})
	if _, err := eng.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if len(b.timers) != 3 || b.timers[0] != 1 || b.timers[1] != 2 || b.timers[2] != 3 {
		t.Fatalf("timer order = %v", b.timers)
	}
}

func TestCancelTimer(t *testing.T) {
	g := lineGraph(1)
	b := &echo{}
	eng := newEngine(t, g, []node.Behavior{b}, Config{})
	eng.Boot(0)
	eng.Schedule(0, func() {
		h := &eng.hosts[0]
		tid := h.SetTimer(10*time.Millisecond, 1)
		h.SetTimer(20*time.Millisecond, 2)
		h.CancelTimer(tid)
		h.CancelTimer(node.TimerID(9999)) // unknown: no-op
	})
	if _, err := eng.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if len(b.timers) != 1 || b.timers[0] != 2 {
		t.Fatalf("timers = %v, want only tag 2", b.timers)
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	g := lineGraph(1)
	b := &echo{}
	eng := newEngine(t, g, []node.Behavior{b}, Config{})
	eng.Boot(0)
	eng.Schedule(5*time.Millisecond, func() { eng.hosts[0].SetTimer(0, 1) })
	eng.Schedule(50*time.Millisecond, func() { eng.hosts[0].SetTimer(0, 2) })
	eng.Run(10 * time.Millisecond)
	if len(b.timers) != 1 {
		t.Fatalf("timers fired by t=10ms: %v", b.timers)
	}
	if eng.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v", eng.Now())
	}
	if eng.Pending() == 0 {
		t.Fatal("future event lost")
	}
	eng.Run(100 * time.Millisecond)
	if len(b.timers) != 2 {
		t.Fatalf("timers after full run: %v", b.timers)
	}
}

func TestKilledNodeReceivesNothing(t *testing.T) {
	g := lineGraph(2)
	sender := &echo{sendOnStart: []byte("boo")}
	victim := &echo{}
	eng := newEngine(t, g, []node.Behavior{sender, victim}, Config{})
	eng.Boot(0)
	eng.Kill(1)
	if _, err := eng.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if len(victim.received) != 0 {
		t.Fatal("dead node received a packet")
	}
	if eng.Alive(1) {
		t.Fatal("killed node reported alive")
	}
}

func TestDieStopsCallbacks(t *testing.T) {
	g := lineGraph(2)
	// Node 1 dies in Start; the packet from node 0 arrives afterwards.
	type dier struct{ echo }
	d := &dier{}
	dBehavior := node.Behavior(behaviorFuncs{
		start:   func(ctx node.Context) { ctx.Die() },
		receive: d.Receive,
		timer:   d.Timer,
	})
	sender := &echo{sendOnStart: []byte("late")}
	eng := newEngine(t, g, []node.Behavior{sender, dBehavior}, Config{})
	eng.Boot(0)
	if _, err := eng.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if len(d.received) != 0 {
		t.Fatal("node received packet after Die")
	}
}

// behaviorFuncs adapts closures to node.Behavior for tests.
type behaviorFuncs struct {
	start   func(node.Context)
	receive func(node.Context, node.ID, []byte)
	timer   func(node.Context, node.Tag)
}

func (b behaviorFuncs) Start(ctx node.Context) { b.start(ctx) }
func (b behaviorFuncs) Receive(ctx node.Context, from node.ID, pkt []byte) {
	b.receive(ctx, from, pkt)
}
func (b behaviorFuncs) Timer(ctx node.Context, tag node.Tag) { b.timer(ctx, tag) }

func TestLossDropsRoughlyExpectedFraction(t *testing.T) {
	// Star: center 0 broadcasts many packets to 1..k over a lossy medium.
	const k, packets, loss = 4, 500, 0.3
	pos := make([]geom.Point, k+1)
	pos[0] = geom.Point{X: 5, Y: 5}
	for i := 1; i <= k; i++ {
		pos[i] = geom.Point{X: 5 + 0.1*float64(i), Y: 5}
	}
	g := topology.FromPositions(pos, 10, 1.0, geom.Planar)
	bs := make([]*echo, k+1)
	behaviors := make([]node.Behavior, k+1)
	for i := range bs {
		bs[i] = &echo{}
		behaviors[i] = bs[i]
	}
	eng := newEngine(t, g, behaviors, Config{Seed: 9, Loss: loss})
	eng.Boot(0)
	for p := 0; p < packets; p++ {
		eng.Schedule(time.Duration(p)*time.Millisecond, func() {
			eng.hosts[0].Broadcast([]byte("p"))
		})
	}
	if _, err := eng.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 1; i <= k; i++ {
		total += len(bs[i].received)
	}
	got := float64(total) / float64(packets*k)
	if got < 0.6 || got > 0.8 {
		t.Fatalf("delivery rate %v, want ~0.7", got)
	}
}

func TestEnergyAccounting(t *testing.T) {
	g := lineGraph(2)
	sender := &echo{sendOnStart: make([]byte, 40)}
	rcv := &echo{}
	eng := newEngine(t, g, []node.Behavior{sender, rcv}, Config{})
	eng.Boot(0)
	if _, err := eng.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if eng.Meter(0).TxCount() != 1 || eng.Meter(0).Tx() <= 0 {
		t.Fatalf("sender meter: %v", eng.Meter(0))
	}
	if eng.Meter(1).RxCount() != 1 || eng.Meter(1).Rx() <= 0 {
		t.Fatalf("receiver meter: %v", eng.Meter(1))
	}
	if eng.Meter(1).TxCount() != 0 {
		t.Fatal("receiver charged for a transmission")
	}
}

func TestTrace(t *testing.T) {
	g := lineGraph(3)
	bs := []*echo{{sendOnStart: []byte("abc")}, {}, {}}
	behaviors := []node.Behavior{bs[0], bs[1], bs[2]}
	var events []TraceEvent
	cfg := Config{Trace: func(ev TraceEvent) { events = append(events, ev) }}
	eng := newEngine(t, g, behaviors, cfg)
	eng.Boot(0)
	if _, err := eng.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 { // node 0 has one neighbor on the line
		t.Fatalf("trace saw %d deliveries, want 1", len(events))
	}
	if events[0].From != 0 || events[0].To != 1 || events[0].Size != 3 || events[0].Lost {
		t.Fatalf("trace event = %+v", events[0])
	}
}

func TestInjectAt(t *testing.T) {
	g := lineGraph(3)
	bs := []*echo{{}, {}, {}}
	behaviors := []node.Behavior{bs[0], bs[1], bs[2]}
	eng := newEngine(t, g, behaviors, Config{})
	eng.Boot(0)
	eng.Schedule(time.Millisecond, func() {
		eng.InjectAt(1, node.ID(777), []byte("evil"))
	})
	if _, err := eng.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if len(bs[0].received) != 1 || bs[0].received[0] != 777 {
		t.Fatalf("node 0 received %v", bs[0].received)
	}
	if len(bs[2].received) != 1 || bs[2].received[0] != 777 {
		t.Fatalf("node 2 received %v", bs[2].received)
	}
	if len(bs[1].received) != 0 {
		t.Fatal("injection delivered to its own position")
	}
	// Injection must not charge any defender meter for transmission.
	for i := 0; i < 3; i++ {
		if eng.Meter(i).TxCount() != 0 {
			t.Fatalf("node %d charged tx for adversary injection", i)
		}
	}
}

func TestBootNodeLateDeployment(t *testing.T) {
	g := lineGraph(3)
	early := &echo{}
	late := &echo{sendOnStart: []byte("fresh")}
	// Position 2 reserved (nil behavior).
	eng := newEngine(t, g, []node.Behavior{early, &echo{}, nil}, Config{})
	eng.Boot(0)
	if eng.Alive(2) {
		t.Fatal("reserved position alive before boot")
	}
	eng.BootNode(2, late, 50*time.Millisecond)
	if _, err := eng.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if late.started != 1 {
		t.Fatal("late node never started")
	}
	if !eng.Alive(2) {
		t.Fatal("late node not alive")
	}
}

func TestPacketImmutabilityAcrossReceivers(t *testing.T) {
	// A receiver that mutates its packet must not affect other receivers.
	pos := []geom.Point{{X: 1, Y: 1}, {X: 1.5, Y: 1}, {X: 0.5, Y: 1}}
	g := topology.FromPositions(pos, 4, 1.0, geom.Planar)
	var got []byte
	mutator := behaviorFuncs{
		start:   func(node.Context) {},
		receive: func(_ node.Context, _ node.ID, pkt []byte) { pkt[0] = 'X' },
		timer:   func(node.Context, node.Tag) {},
	}
	observer := behaviorFuncs{
		start:   func(node.Context) {},
		receive: func(_ node.Context, _ node.ID, pkt []byte) { got = append([]byte(nil), pkt...) },
		timer:   func(node.Context, node.Tag) {},
	}
	sender := &echo{sendOnStart: []byte("ok")}
	// Node 2 comes first in the sender's neighbor order, so the mutator
	// receives before the observer.
	eng := newEngine(t, g, []node.Behavior{sender, observer, mutator}, Config{Jitter: 1})
	eng.Boot(0)
	// The sender scribbling over its buffer after Broadcast must not be
	// visible to receivers either. Coordinator closures run before shard
	// events at equal times, so the scribble goes between the transmission
	// at 0 and the arrivals at PropDelay.
	eng.Schedule(time.Millisecond/2, func() { sender.sendOnStart[1] = 'Z' })
	if _, err := eng.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ok" {
		t.Fatalf("observer saw %q; deliveries are not isolated", got)
	}
}

// immutabilityRun is TestPacketImmutabilityAcrossReceivers's scenario
// under cfg: node 0 sends "ok" to a mutator (node 2, first in neighbor
// order) and an observer (node 1), scribbles over its buffer between
// transmission and arrival, and returns what the observer saw.
func immutabilityRun(t *testing.T, cfg Config) string {
	t.Helper()
	pos := []geom.Point{{X: 1, Y: 1}, {X: 1.5, Y: 1}, {X: 0.5, Y: 1}}
	g := topology.FromPositions(pos, 4, 1.0, geom.Planar)
	var got []byte
	mutator := behaviorFuncs{
		start:   func(node.Context) {},
		receive: func(_ node.Context, _ node.ID, pkt []byte) { pkt[0] = 'X' },
		timer:   func(node.Context, node.Tag) {},
	}
	observer := behaviorFuncs{
		start:   func(node.Context) {},
		receive: func(_ node.Context, _ node.ID, pkt []byte) { got = append([]byte(nil), pkt...) },
		timer:   func(node.Context, node.Tag) {},
	}
	sender := &echo{sendOnStart: []byte("ok")}
	cfg.Jitter = 1
	eng := newEngine(t, g, []node.Behavior{sender, observer, mutator}, cfg)
	eng.Boot(0)
	eng.Schedule(time.Millisecond/2, func() { sender.sendOnStart[1] = 'Z' })
	if _, err := eng.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	return string(got)
}

// TestPacketImmutabilityAcrossReceiversCrossShard puts the mutator on
// the sender's shard and the observer on the other one at S = 2, so the
// two deliveries come from two transmission records on two goroutines.
func TestPacketImmutabilityAcrossReceiversCrossShard(t *testing.T) {
	if got := immutabilityRun(t, Config{Shards: 2, ShardOf: []int{0, 1, 0}}); got != "ok" {
		t.Fatalf("observer saw %q; deliveries are not isolated across shards", got)
	}
}

// TestPacketImmutabilityAcrossReceiversPoisoned recycles the mutator's
// buffer under PoisonRecycled before the observer's arrival: the
// observer's private copy, and the record it is copied from, must still
// hold the packet.
func TestPacketImmutabilityAcrossReceiversPoisoned(t *testing.T) {
	if got := immutabilityRun(t, Config{PoisonRecycled: true}); got != "ok" {
		t.Fatalf("observer saw %q; a recycled buffer leaked into a later delivery", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := lineGraph(2)
	if _, err := New(Config{Graph: g}, make([]node.Behavior, 3)); err == nil {
		t.Fatal("behavior count mismatch accepted")
	}
	if _, err := New(Config{Graph: g, Shards: -1}, make([]node.Behavior, 2)); err == nil {
		t.Fatal("negative Shards accepted")
	}
	if _, err := New(Config{Graph: g, ShardOf: []int{0, 1}}, make([]node.Behavior, 2)); err == nil {
		t.Fatal("ShardOf naming a second shard accepted at Shards 0")
	}
}

func TestRunUntilIdleEventLimit(t *testing.T) {
	g := lineGraph(1)
	b := &echo{}
	eng := newEngine(t, g, []node.Behavior{b}, Config{})
	eng.Boot(0)
	// A self-perpetuating timer chain.
	var arm func()
	arm = func() {
		eng.hosts[0].SetTimer(time.Millisecond, 0)
		eng.Schedule(eng.Now()+time.Millisecond, arm)
	}
	eng.Schedule(0, arm)
	if _, err := eng.RunUntilIdle(50); err == nil {
		t.Fatal("livelock not detected")
	}
}

func TestMediumRandomnessIndependentOfNodeRand(t *testing.T) {
	// Consuming a node's private stream must not perturb medium behavior.
	run := func(consume bool) int {
		g := lineGraph(3)
		bs := make([]*echo, 3)
		behaviors := make([]node.Behavior, 3)
		for i := range bs {
			bs[i] = &echo{}
			behaviors[i] = bs[i]
		}
		eng := newEngine(t, g, behaviors, Config{Seed: 5, Loss: 0.5})
		eng.Boot(0)
		if consume {
			eng.Schedule(0, func() {
				for i := 0; i < 100; i++ {
					eng.hosts[1].Rand().Uint64()
				}
			})
		}
		for p := 0; p < 100; p++ {
			eng.Schedule(time.Duration(p)*time.Millisecond, func() {
				eng.hosts[0].Broadcast([]byte("q"))
			})
		}
		if _, err := eng.RunUntilIdle(0); err != nil {
			t.Fatal(err)
		}
		return len(bs[1].received)
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("medium outcomes differ when node stream consumed: %d vs %d", a, b)
	}
}

func TestSplitStreamsPerNodeDiffer(t *testing.T) {
	g := lineGraph(2)
	eng := newEngine(t, g, []node.Behavior{&echo{}, &echo{}}, Config{Seed: 8})
	a := eng.hosts[0].Rand().Uint64()
	b := eng.hosts[1].Rand().Uint64()
	if a == b {
		t.Fatal("two nodes share a random stream")
	}
}

func BenchmarkBroadcastDelivery(b *testing.B) {
	rng := xrand.New(1)
	g, err := topology.Generate(rng, topology.Config{N: 1000, Density: 12.5, Metric: geom.Torus})
	if err != nil {
		b.Fatal(err)
	}
	behaviors := make([]node.Behavior, g.N())
	sink := behaviorFuncs{
		start:   func(node.Context) {},
		receive: func(node.Context, node.ID, []byte) {},
		timer:   func(node.Context, node.Tag) {},
	}
	for i := range behaviors {
		behaviors[i] = sink
	}
	eng, err := New(Config{Graph: g, Seed: 1}, behaviors)
	if err != nil {
		b.Fatal(err)
	}
	eng.Boot(0)
	if _, err := eng.RunUntilIdle(0); err != nil {
		b.Fatal(err)
	}
	pkt := make([]byte, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.hosts[i%g.N()].Broadcast(pkt)
		if _, err := eng.RunUntilIdle(0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAutoShards(t *testing.T) {
	for _, c := range []struct {
		name             string
		shards, n, procs int
		want             int
	}{
		{"one core", 0, 100 * minNodesPerShard, 1, 1},
		{"below threshold", 0, 2*minNodesPerShard - 1, 8, 1},
		{"tiny", 0, 2, 8, 1},
		{"at threshold", 0, 2 * minNodesPerShard, 8, 2},
		{"between", 0, 5*minNodesPerShard + 1, 8, 5},
		{"capped at procs", 0, 100 * minNodesPerShard, 4, 4},
		{"explicit one", 1, 100 * minNodesPerShard, 8, 1},
		{"explicit many", 3, 10, 1, 3},
		{"negative kept for New to reject", -1, 100 * minNodesPerShard, 8, -1},
	} {
		if got := AutoShards(c.shards, c.n, c.procs); got != c.want {
			t.Errorf("%s: AutoShards(%d, %d, %d) = %d, want %d", c.name, c.shards, c.n, c.procs, got, c.want)
		}
	}
}

// TestIdleShardsStayParked floods a line split into four shards. Most
// epochs have work due on one shard only, which then runs on the
// coordinator while the others stay parked; the outcome must match one
// shard, and every epoch still reports its stall and utilization.
func TestIdleShardsStayParked(t *testing.T) {
	flood := func(shards int) ([]*echo, *obs.Registry) {
		const n = 8
		bs := make([]node.Behavior, n)
		echoes := make([]*echo, n)
		for i := range bs {
			echoes[i] = &echo{rebroadcast: true}
			bs[i] = echoes[i]
		}
		echoes[n-1].sendOnStart = []byte("wave")
		reg := obs.NewRegistry()
		eng := newEngine(t, lineGraph(n), bs, Config{Shards: shards, Obs: reg.Scope("t", 0)})
		eng.Boot(0)
		eng.Run(time.Second)
		return echoes, reg
	}
	one, _ := flood(1)
	four, reg := flood(4)
	for i := range one {
		if fmt.Sprint(one[i].received) != fmt.Sprint(four[i].received) {
			t.Errorf("node %d received %v at four shards, %v at one", i, four[i].received, one[i].received)
		}
	}
	if len(four[0].received) == 0 {
		t.Fatal("the flood never reached the far end of the line")
	}
	snap := reg.Snapshot()
	epochs := snap["sim_epochs_total"].(uint64)
	stall := snap["sim_shard_stall_seconds"].(obs.HistogramSnapshot)
	util := snap["sim_shard_util"].(obs.HistogramSnapshot)
	if epochs == 0 || stall.Count != epochs || util.Count != epochs {
		t.Errorf("epochs %d, stall observations %d, utilization observations %d: want all equal and nonzero",
			epochs, stall.Count, util.Count)
	}
}
