package transport

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// chatter broadcasts a 32-byte payload every period, starting at a
// random phase, so every link of the lab carries steady ARQ traffic.
type chatter struct {
	period time.Duration
	buf    [32]byte
}

func (c *chatter) Start(ctx node.Context) {
	ctx.SetTimer(time.Duration(ctx.Rand().Intn(int(c.period))), 0)
}

func (c *chatter) Receive(node.Context, node.ID, []byte) {}

func (c *chatter) Timer(ctx node.Context, _ node.Tag) {
	ctx.Broadcast(c.buf[:])
	ctx.SetTimer(c.period, 0)
}

// BenchmarkLabARQ runs one second of virtual time on a 300-node,
// density-10 lab with ARQ, 5ms ack coalescing and 3% frame loss; every
// node broadcasts every 100ms. One op is NewLab plus the run, so ns/op
// and allocs/op cover the event loop, the endpoints' retransmit clock
// and the per-frame carrier work.
func BenchmarkLabARQ(b *testing.B) {
	graph, err := topology.Generate(xrand.New(1), topology.Config{N: 300, Density: 10, Metric: geom.Torus})
	if err != nil {
		b.Fatal(err)
	}
	behaviors := make([]node.Behavior, graph.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range behaviors {
			behaviors[j] = &chatter{period: 100 * time.Millisecond}
		}
		lab, err := NewLab(LabConfig{
			Graph:     graph,
			Seed:      uint64(i) + 1,
			Transport: Config{ARQ: true, AckDelay: 5 * time.Millisecond},
			Loss:      0.03,
		}, behaviors)
		if err != nil {
			b.Fatal(err)
		}
		lab.Run(time.Second)
	}
}

// BenchmarkEndpointTick measures one endpoint's per-event retransmit
// clock: 10 peers with 4 frames in flight each, and per op one ack, one
// new send, then NextWake and Tick.
// Virtual time advances 200µs per op, so each frame is acked long before
// its retransmit deadline and Tick mostly finds nothing due.
func BenchmarkEndpointTick(b *testing.B) {
	const (
		peers    = 10
		inFlight = 4
		step     = 200 * time.Microsecond
	)
	e := NewEndpoint(Config{ARQ: true}, 0, xrand.New(1), func(int, []byte) {}, func(int, []byte) {})
	payload := make([]byte, 32)
	var now time.Duration
	for k := 0; k < inFlight; k++ {
		for p := 1; p <= peers; p++ {
			e.Send(p, payload, now)
		}
	}
	// acked[p] is the last seq acked toward peer p; the frames in flight
	// toward it are acked[p]+1 .. acked[p]+inFlight.
	var acked [peers + 1]uint32
	var ack []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := 1 + i%peers
		acked[p]++
		ack = Frame{Kind: KindAck, From: uint32(p), Epoch: e.Epoch(), Seq: acked[p]}.AppendMarshal(ack[:0])
		e.HandleRaw(ack, now)
		e.Send(p, payload, now)
		now += step
		if _, ok := e.NextWake(); !ok {
			b.Fatal("no wake with frames in flight")
		}
		e.Tick(now)
	}
	b.StopTimer()
	if got := e.InFlight(); got != peers*inFlight {
		b.Fatalf("%d frames in flight, want %d", got, peers*inFlight)
	}
}
