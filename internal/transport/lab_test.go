package transport

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

// collector records delivered payloads; it is a pure sink behavior.
type collector struct {
	got []string
}

func (c *collector) Start(node.Context)                          {}
func (c *collector) Receive(_ node.Context, _ node.ID, p []byte) { c.got = append(c.got, string(p)) }
func (c *collector) Timer(node.Context, node.Tag)                {}

// idle is a behavior that does nothing (a live peer with no traffic).
type idle struct{}

func (idle) Start(node.Context)                    {}
func (idle) Receive(node.Context, node.ID, []byte) {}
func (idle) Timer(node.Context, node.Tag)          {}

func lineGraph(n int) *topology.Graph {
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i), Y: 0}
	}
	return topology.FromPositions(pos, float64(n+1), 1.1, geom.Planar)
}

// labPair builds a 2-node lab: node 0 collects, node 1 sends via Do.
func labPair(t *testing.T, cfg Config, drop func(time.Duration, int, int) bool) (*Lab, *collector, Metrics) {
	t.Helper()
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	sinkB := &collector{}
	lab, err := NewLab(LabConfig{
		Graph:     lineGraph(2),
		Seed:      1234,
		Transport: cfg,
		Drop:      drop,
		Metrics:   m,
	}, []node.Behavior{sinkB, idle{}})
	if err != nil {
		t.Fatal(err)
	}
	return lab, sinkB, m
}

// TestLabARQRecoversFromBlackout drops every frame (data and acks) for
// the first 50ms; messages sent inside the blackout are recovered by
// retransmission with ARQ on and lost with ARQ off.
func TestLabARQRecoversFromBlackout(t *testing.T) {
	blackout := func(now time.Duration, from, to int) bool { return now < 50*time.Millisecond }
	send := func(lab *Lab) {
		for k := 0; k < 5; k++ {
			msg := fmt.Sprintf("m%d", k)
			lab.Do(time.Duration(k+1)*5*time.Millisecond, 1, func(ctx node.Context) {
				ctx.Broadcast([]byte(msg))
			})
		}
		lab.Run(2 * time.Second)
	}

	arqLab, arqSink, m := labPair(t, Config{ARQ: true}, blackout)
	send(arqLab)
	if len(arqSink.got) != 5 {
		t.Fatalf("ARQ delivered %d/5 through the blackout: %q", len(arqSink.got), arqSink.got)
	}
	if m.Retransmits.Value() == 0 {
		t.Fatal("blackout recovery happened without retransmissions?")
	}

	bareLab, bareSink, _ := labPair(t, Config{}, blackout)
	send(bareLab)
	if len(bareSink.got) != 0 {
		t.Fatalf("bare transport delivered %d messages through a total blackout", len(bareSink.got))
	}
}

// TestLabFramedDelivery checks ARQ on a clean medium: payloads travel
// wrapped in transport frames and arrive intact and exactly once, with
// no retransmission and no duplicate drop.
func TestLabFramedDelivery(t *testing.T) {
	lab, sink, m := labPair(t, Config{ARQ: true}, nil)
	for k := 0; k < 4; k++ {
		msg := fmt.Sprintf("m%d", k)
		lab.Do(time.Duration(k+1)*10*time.Millisecond, 1, func(ctx node.Context) {
			ctx.Broadcast([]byte(msg))
		})
	}
	lab.Run(time.Second)
	if len(sink.got) != 4 {
		t.Fatalf("framed transport delivered %d/4: %q", len(sink.got), sink.got)
	}
	for k, got := range sink.got {
		if want := fmt.Sprintf("m%d", k); got != want {
			t.Fatalf("delivery %d = %q, want %q", k, got, want)
		}
	}
	if m.DupDrops.Value() != 0 || m.Retransmits.Value() != 0 {
		t.Fatalf("clean run recorded %d dup drops and %d retransmits",
			m.DupDrops.Value(), m.Retransmits.Value())
	}
	if got := lab.Endpoint(1).InFlight(); got != 0 {
		t.Fatalf("%d frames still in flight on a clean medium", got)
	}
}

// TestLabBreakerOpensOnCrashAndRecovers crashes the receiver, lets the
// sender's breaker open, reboots the receiver, and checks the link
// closes again via the half-open probe.
func TestLabBreakerOpensOnCrashAndRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	sinkB := &collector{}
	lab, err := NewLab(LabConfig{
		Graph:     lineGraph(2),
		Seed:      99,
		Transport: Config{ARQ: true},
		Metrics:   m,
	}, []node.Behavior{sinkB, idle{}})
	if err != nil {
		t.Fatal(err)
	}
	// Sender broadcasts every 100ms for 12s.
	for k := 0; k < 120; k++ {
		msg := fmt.Sprintf("m%d", k)
		lab.Do(time.Duration(k)*100*time.Millisecond, 1, func(ctx node.Context) {
			ctx.Broadcast([]byte(msg))
		})
	}
	lab.ScheduleCrash(200*time.Millisecond, 0)
	lab.Run(6 * time.Second)
	if got := lab.Endpoint(1).BreakerState(0); got == BreakerClosed {
		t.Fatalf("breaker still closed after %v of dead peer (opens=%d fails=%d)",
			lab.Now(), m.Opens.Value(), m.Failures.Value())
	}
	if m.Opens.Value() == 0 {
		t.Fatal("no breaker opens recorded")
	}
	before := len(sinkB.got)

	lab.ScheduleReboot(6*time.Second+time.Millisecond, 0)
	lab.Run(13 * time.Second)
	if got := lab.Endpoint(1).BreakerState(0); got != BreakerClosed {
		t.Fatalf("breaker %v after peer reboot and %v of traffic, want closed", got, lab.Now())
	}
	if len(sinkB.got) <= before {
		t.Fatal("no deliveries after the peer rebooted")
	}
	if m.Closes.Value() == 0 {
		t.Fatal("no breaker closes recorded")
	}
}

// TestLabCoalescedAcksDeliverUnderLoss runs the blackout-recovery
// scenario with ACK coalescing enabled and requires the same 5/5
// delivery as the classic per-frame ack path: batched acks must clear
// inflight state just as reliably under loss and retransmission.
func TestLabCoalescedAcksDeliverUnderLoss(t *testing.T) {
	blackout := func(now time.Duration, from, to int) bool { return now < 50*time.Millisecond }
	lab, sink, m := labPair(t, Config{ARQ: true, AckDelay: 4 * time.Millisecond}, blackout)
	for k := 0; k < 5; k++ {
		msg := fmt.Sprintf("m%d", k)
		lab.Do(time.Duration(k+1)*5*time.Millisecond, 1, func(ctx node.Context) {
			ctx.Broadcast([]byte(msg))
		})
	}
	lab.Run(2 * time.Second)
	if len(sink.got) != 5 {
		t.Fatalf("coalesced-ack ARQ delivered %d/5 through the blackout: %q", len(sink.got), sink.got)
	}
	if m.Retransmits.Value() == 0 {
		t.Fatal("blackout recovery happened without retransmissions?")
	}
	if got := lab.Endpoint(1).InFlight(); got != 0 {
		t.Fatalf("%d frames still inflight after batched acks", got)
	}
}

// TestLabDeterminism runs an identical lossy ARQ scenario twice and
// requires identical delivery sequences and identical counters.
func TestLabDeterminism(t *testing.T) {
	run := func() ([]string, map[string]uint64) {
		reg := obs.NewRegistry()
		m := NewMetrics(reg)
		sinkB := &collector{}
		loss := xrand.New(4242).Split(2)
		lab, err := NewLab(LabConfig{
			Graph:     lineGraph(3),
			Seed:      4242,
			Transport: Config{ARQ: true},
			Drop:      func(time.Duration, int, int) bool { return loss.Bool(0.4) },
			Metrics:   m,
		}, []node.Behavior{sinkB, idle{}, idle{}})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 30; k++ {
			msg := fmt.Sprintf("m%d", k)
			src := 1 + k%2
			lab.Do(time.Duration(k+1)*7*time.Millisecond, src, func(ctx node.Context) {
				ctx.Broadcast([]byte(msg))
			})
		}
		lab.Run(5 * time.Second)
		counts := map[string]uint64{
			"tx":    m.TxData.Value(),
			"retx":  m.Retransmits.Value(),
			"dup":   m.DupDrops.Value(),
			"acks":  m.RxAcks.Value(),
			"fails": m.Failures.Value(),
		}
		return sinkB.got, counts
	}
	got1, c1 := run()
	got2, c2 := run()
	if len(got1) != len(got2) {
		t.Fatalf("delivery counts differ: %d vs %d", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("delivery %d differs: %q vs %q", i, got1[i], got2[i])
		}
	}
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatalf("counter %s differs across identical runs: %d vs %d", k, v, c2[k])
		}
	}
	if len(got1) == 0 {
		t.Fatal("lossy run delivered nothing; scenario too harsh to be meaningful")
	}
}

// TestLabRunsOnOneShard pins that a Lab stays on one inline shard however
// large its graph: it builds its engine with Shards unset, which the
// engine never resolves to more than one (sim.AutoShards is for hosts
// whose behaviors are shard-safe, such as core.Deploy).
func TestLabRunsOnOneShard(t *testing.T) {
	graph, err := topology.Generate(xrand.New(5), topology.Config{N: 20_000, Density: 10, Metric: geom.Torus})
	if err != nil {
		t.Fatal(err)
	}
	lab, err := NewLab(LabConfig{Graph: graph, Seed: 5}, make([]node.Behavior, graph.N()))
	if err != nil {
		t.Fatal(err)
	}
	if got := lab.eng.ShardCount(); got != 1 {
		t.Fatalf("a 20 000-node Lab runs on %d shards, want 1", got)
	}
}
