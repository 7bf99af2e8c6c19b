package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/transport"
)

func TestFramedBroadcastDelivers(t *testing.T) {
	g := lineGraph(3)
	cs := []*counter{{}, {}, {}}
	net := Start(Config{Graph: g, Seed: 1, Transport: transport.Config{ARQ: true}},
		[]node.Behavior{cs[0], cs[1], cs[2]})
	defer net.Stop()
	net.Do(0, func(ctx node.Context) { ctx.Broadcast([]byte("framed hello")) })
	waitFor(t, 2*time.Second, func() bool { return cs[1].received.Load() == 1 })
	if cs[2].received.Load() != 0 {
		t.Fatal("frame delivered beyond radio range")
	}
}

// TestFramedARQSurvivesDeterministicDrop drops every other frame at the
// transport seam; the retry machinery must still deliver every payload
// exactly once.
func TestFramedARQSurvivesDeterministicDrop(t *testing.T) {
	g := lineGraph(2)
	cs := []*counter{{}, {}}
	var frames atomic.Int64
	drop := func(now time.Duration, from, to int) bool {
		return frames.Add(1)%2 == 1
	}
	net := Start(Config{Graph: g, Seed: 2, Transport: transport.Config{ARQ: true}, Drop: drop},
		[]node.Behavior{cs[0], cs[1]})
	defer net.Stop()
	const msgs = 10
	for k := 0; k < msgs; k++ {
		net.Do(0, func(ctx node.Context) { ctx.Broadcast([]byte("payload")) })
	}
	waitFor(t, 10*time.Second, func() bool { return cs[1].received.Load() == msgs })
	// Duplicate suppression: no payload may surface twice.
	time.Sleep(50 * time.Millisecond)
	if got := cs[1].received.Load(); got != msgs {
		t.Fatalf("delivered %d payloads, want exactly %d", got, msgs)
	}
}

// TestFramedTxChargedPerFrame checks the framed path's energy rule:
// every frame a node puts on a link — data, retransmission or ack —
// costs it one Tx, so each meter's Tx count equals the frames that node
// passed to the Drop seam.
func TestFramedTxChargedPerFrame(t *testing.T) {
	g := lineGraph(2)
	cs := []*counter{{}, {}}
	var mu sync.Mutex
	var sent [2]int
	drop := func(now time.Duration, from, to int) bool {
		mu.Lock()
		defer mu.Unlock()
		sent[from]++
		return (sent[0]+sent[1])%2 == 1
	}
	net := Start(Config{Graph: g, Seed: 5, Transport: transport.Config{ARQ: true}, Drop: drop},
		[]node.Behavior{cs[0], cs[1]})
	const msgs = 6
	for k := 0; k < msgs; k++ {
		net.Do(0, func(ctx node.Context) { ctx.Broadcast([]byte("payload")) })
	}
	waitFor(t, 10*time.Second, func() bool { return cs[1].received.Load() == msgs })
	net.Stop()
	for i := range sent {
		m := net.MeterSnapshot(i)
		if got := m.TxCount(); got != sent[i] {
			t.Errorf("node %d charged %d transmissions for %d frames", i, got, sent[i])
		}
	}
	if sent[0] <= msgs || sent[1] == 0 {
		t.Fatalf("sender put %d frames for %d payloads and the receiver %d acks; the drops should force retransmissions and acks", sent[0], msgs, sent[1])
	}
}

// TestDoOnCrashedNodeDoesNotBlock is the regression test for the Do /
// Crash deadlock: a crashed node's goroutine has exited, so once its
// command buffer is full, Do used to block its caller forever.
func TestDoOnCrashedNodeDoesNotBlock(t *testing.T) {
	g := lineGraph(2)
	cs := []*counter{{}, {}}
	net := Start(Config{Graph: g, Seed: 3}, []node.Behavior{cs[0], cs[1]})
	defer net.Stop()
	net.Crash(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// More than the command buffer (16) to guarantee the old code
		// would wedge.
		for i := 0; i < 40; i++ {
			net.Do(1, func(node.Context) {})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do blocked on a crashed node")
	}
}

func TestDoOnDarkNodeIsNoop(t *testing.T) {
	g := lineGraph(2)
	net := Start(Config{Graph: g, Seed: 4}, []node.Behavior{&counter{}, nil})
	defer net.Stop()
	for i := 0; i < 40; i++ {
		net.Do(1, func(node.Context) {}) // must neither block nor panic
	}
}

// TestStartStopChurn hammers the startup/teardown path under -race:
// nodes broadcasting (framed, lossy) and crashing while Stop races the
// traffic. Failure mode is a panic, deadlock, or race report — there
// is nothing to assert beyond clean completion.
func TestStartStopChurn(t *testing.T) {
	g := lineGraph(4)
	for it := 0; it < 25; it++ {
		bs := make([]node.Behavior, 4)
		for i := range bs {
			c := &counter{}
			c.onStart = func(ctx node.Context) {
				ctx.Broadcast([]byte("boot"))
				ctx.SetTimer(time.Millisecond, 1)
			}
			c.onTimer = func(ctx node.Context, _ node.Tag) {
				ctx.Broadcast([]byte("tick"))
				ctx.SetTimer(time.Millisecond, 1)
			}
			bs[i] = c
		}
		cfg := Config{Graph: g, Seed: uint64(it), Loss: 0.3}
		// ARQ iterations run past the first 20 ms retransmit backoff, so
		// retransmissions race Stop.
		run := time.Duration(it%3) * time.Millisecond
		if it%2 == 0 {
			cfg.Transport = transport.Config{ARQ: true}
			run += 25 * time.Millisecond
		}
		net := Start(cfg, bs)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				net.Do(i, func(ctx node.Context) { ctx.Broadcast([]byte("cmd")) })
			}
		}()
		if it%3 == 0 {
			net.Crash(it % 4)
		}
		time.Sleep(run)
		net.Stop()
		wg.Wait()
	}
}

// nullCarrier accepts frames and never delivers any.
type nullCarrier struct{}

func (nullCarrier) Send(int, []byte)                  {}
func (nullCarrier) Inbound() <-chan transport.Inbound { return nil }

// TestCarrierRequiresARQ: a carrier moves transport frames, which only
// ARQ endpoints produce, so Start must refuse a carrier without ARQ.
func TestCarrierRequiresARQ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Start accepted a Carrier without Transport.ARQ")
		}
	}()
	Start(Config{Graph: lineGraph(2), Carrier: nullCarrier{}}, []node.Behavior{&counter{}, nil})
}
