package transport

import (
	"testing"
	"time"

	"repro/internal/xrand"
)

// coalesceCfg is testCfg plus ACK coalescing.
func coalesceCfg() Config {
	cfg := testCfg()
	cfg.AckDelay = 5 * time.Millisecond
	return cfg
}

// dataFrom builds a data frame as peer would send it.
func dataFrom(peer int, epoch, seq uint32, s string) []byte {
	return Frame{Kind: KindData, From: uint32(peer), Epoch: epoch, Seq: seq, Payload: []byte(s)}.Marshal()
}

// TestAckCoalescingDeadlineFlush: frames arriving inside one delay
// window produce a single range-coded ack batch at the deadline, not one
// ack per frame.
func TestAckCoalescingDeadlineFlush(t *testing.T) {
	out := &sink{}
	e := NewEndpoint(coalesceCfg(), 1, xrand.New(11), out.send, func(int, []byte) {})
	const peer = 0
	now := time.Duration(0)

	for seq := uint32(10); seq < 13; seq++ {
		e.HandleRaw(dataFrom(peer, 9, seq, "d"), now)
		now += time.Millisecond
	}
	if n := countKind(out.frames, KindAck) + countKind(out.frames, KindAckBatch); n != 0 {
		t.Fatalf("%d acks sent before the delay elapsed, want 0", n)
	}
	w, ok := e.NextWake()
	if !ok || w != 5*time.Millisecond {
		t.Fatalf("NextWake = %v, %v; want the first frame's ack deadline 5ms", w, ok)
	}
	e.Tick(w)
	batches := countKind(out.frames, KindAckBatch)
	if batches != 1 {
		t.Fatalf("deadline flush sent %d ack batches, want 1", batches)
	}
	b := out.last()
	want := []byte{0, 0, 0, 10, 0, 3} // one range: start 10, count 3
	if b.Kind != KindAckBatch || b.Epoch != 9 || string(b.Payload) != string(want) {
		t.Fatalf("batch = kind %v epoch %d payload %x, want epoch 9 payload %x", b.Kind, b.Epoch, b.Payload, want)
	}
	if _, ok := e.NextWake(); ok {
		t.Fatal("NextWake still set after the flush with nothing else pending")
	}
}

// TestAckCoalescingCountFlush: the ackMax-th pending ack flushes
// immediately, before the deadline.
func TestAckCoalescingCountFlush(t *testing.T) {
	out := &sink{}
	e := NewEndpoint(coalesceCfg(), 1, xrand.New(12), out.send, func(int, []byte) {})
	for seq := uint32(1); seq <= ackMax; seq++ {
		if n := countKind(out.frames, KindAckBatch); n != 0 {
			t.Fatalf("ack batch flushed after %d of %d frames", seq-1, ackMax)
		}
		e.HandleRaw(dataFrom(0, 3, seq, "d"), 0)
	}
	if n := countKind(out.frames, KindAckBatch); n != 1 {
		t.Fatalf("%d ack batches after ackMax frames at t=0, want 1", n)
	}
	b := out.last()
	want := []byte{0, 0, 0, 1, 0, ackMax}
	if string(b.Payload) != string(want) {
		t.Fatalf("batch payload %x, want %x", b.Payload, want)
	}
}

// TestAckCoalescingRangeSpansWraparound is the satellite edge case: a
// run of sequence numbers crossing 0xFFFFFFFF→0 must coalesce into ONE
// range, and the sender must clear every in-flight frame when it
// expands that range with the same mod-2^32 arithmetic.
func TestAckCoalescingRangeSpansWraparound(t *testing.T) {
	cfg := coalesceCfg()
	var wire []Frame
	now := time.Duration(0)
	var a, b *Endpoint
	a = NewEndpoint(cfg, 0, xrand.New(13), func(to int, fr []byte) {
		f, err := ParseFrame(fr)
		if err != nil {
			t.Fatalf("a sent unparseable frame: %v", err)
		}
		b.HandleRaw(fr, now)
		wire = append(wire, f)
	}, func(int, []byte) {})
	b = NewEndpoint(cfg, 1, xrand.New(14), func(to int, fr []byte) {
		f, err := ParseFrame(fr)
		if err != nil {
			t.Fatalf("b sent unparseable frame: %v", err)
		}
		if f.Payload != nil {
			f.Payload = append([]byte(nil), f.Payload...)
		}
		wire = append(wire, f)
		a.HandleRaw(fr, now)
	}, func(int, []byte) {})

	// Push a's send sequence to the edge of the wraparound, so the run
	// of ackMax frames starts at FFFFFFFE and ends at ackMax-3.
	a.link(1).nextSeq = 0xFFFFFFFD
	for i := 0; i < ackMax-1; i++ {
		a.Send(1, []byte("w"), now)
	}
	if got := a.InFlight(); got != ackMax-1 {
		t.Fatalf("in flight before the batch = %d, want %d", got, ackMax-1)
	}
	a.Send(1, []byte("w"), now) // b hits ackMax and flushes synchronously
	// b owed ackMax acks, so the count trigger has already flushed.
	var batch *Frame
	for i := range wire {
		if wire[i].Kind == KindAckBatch {
			if batch != nil {
				t.Fatal("more than one ack batch for one run of frames")
			}
			batch = &wire[i]
		}
	}
	if batch == nil {
		t.Fatal("no ack batch on the wire")
	}
	want := []byte{0xFF, 0xFF, 0xFF, 0xFE, 0x00, ackMax} // ONE range across the wrap
	if string(batch.Payload) != string(want) {
		t.Fatalf("wraparound run encoded as %x, want single range %x", batch.Payload, want)
	}
	if got := a.InFlight(); got != 0 {
		t.Fatalf("in flight after wraparound batch = %d, want 0 (wrapped seqs not expanded?)", got)
	}
}

// TestAckCoalescingFlushOnReverseTraffic: sending data toward a peer we
// owe acks flushes them first, bounding ack latency without waiting for
// the deadline.
func TestAckCoalescingFlushOnReverseTraffic(t *testing.T) {
	out := &sink{}
	e := NewEndpoint(coalesceCfg(), 1, xrand.New(15), out.send, func(int, []byte) {})
	e.HandleRaw(dataFrom(0, 5, 1, "d"), 0)
	e.HandleRaw(dataFrom(0, 5, 2, "d"), 0)
	if n := countKind(out.frames, KindAckBatch); n != 0 {
		t.Fatal("acks flushed before any trigger")
	}
	e.Send(0, []byte("reply"), time.Millisecond)
	if n := countKind(out.frames, KindAckBatch); n != 1 {
		t.Fatalf("reverse traffic flushed %d ack batches, want 1", n)
	}
	// The batch must precede the data frame on the wire.
	var sawBatch bool
	for _, f := range out.frames {
		if f.Kind == KindAckBatch {
			sawBatch = true
		}
		if f.Kind == KindData && f.Payload != nil && string(f.Payload) == "reply" && !sawBatch {
			t.Fatal("data frame went out before the owed acks")
		}
	}
}

// TestAckCoalescingFlushOnBreakerOpen: when a link's breaker trips, the
// acks owed to that peer go out immediately (the peer's retransmit state
// must not starve just because our sends to it keep failing).
func TestAckCoalescingFlushOnBreakerOpen(t *testing.T) {
	out := &sink{}
	cfg := coalesceCfg()
	cfg.AckDelay = time.Hour // only a state change can flush
	e := NewEndpoint(cfg, 1, xrand.New(16), out.send, func(int, []byte) {})
	const peer = 0
	now := time.Duration(0)

	// breakerThreshold exhausted sends trip the breaker. The ack must be
	// queued after the final Send (whose reverse-traffic trigger would
	// otherwise drain it) but before the retries exhaust.
	for i := 1; i < breakerThreshold; i++ {
		e.Send(peer, []byte("x"), now)
		now = drainRetries(e, now)
	}
	e.Send(peer, []byte("x"), now)
	e.HandleRaw(dataFrom(peer, 5, 10, "d"), now)
	now = drainRetries(e, now)
	if got := e.BreakerState(peer); got != BreakerOpen {
		t.Fatalf("breaker = %v, want open", got)
	}
	last := out.last()
	if last.Kind != KindAckBatch {
		t.Fatalf("last frame on the wire = %v, want the breaker-open ack flush", last.Kind)
	}
	if len(e.link(peer).ackPend) != 0 {
		t.Fatal("acks still pending after breaker opened")
	}
}

// TestAckCoalescingEpochChangeFlushes: a batch may not mix epochs; a
// data frame from a rebooted peer flushes the old epoch's acks first.
func TestAckCoalescingEpochChangeFlushes(t *testing.T) {
	out := &sink{}
	e := NewEndpoint(coalesceCfg(), 1, xrand.New(17), out.send, func(int, []byte) {})
	e.HandleRaw(dataFrom(0, 5, 7, "d"), 0)
	e.HandleRaw(dataFrom(0, 6, 1, "d"), 0) // peer rebooted
	batches := 0
	for _, f := range out.frames {
		if f.Kind == KindAckBatch {
			batches++
			if f.Epoch != 5 {
				t.Fatalf("flushed batch carries epoch %d, want the old epoch 5", f.Epoch)
			}
		}
	}
	if batches != 1 {
		t.Fatalf("%d batches flushed on epoch change, want 1", batches)
	}
	if l := e.link(0); len(l.ackPend) != 1 || l.ackEpoch != 6 {
		t.Fatalf("new epoch's ack not pending: %d pending, epoch %d", len(l.ackPend), l.ackEpoch)
	}
}

// TestAckDelayZeroAcksEachFrameAtOnce: with AckDelay zero every
// inbound data frame is acked inside its own HandleRaw, before any
// Tick, by one KindAck that echoes its epoch and seq, in arrival order;
// nothing is left pending and no KindAckBatch is ever sent.
func TestAckDelayZeroAcksEachFrameAtOnce(t *testing.T) {
	cfg := testCfg()
	cfg.AckDelay = 0
	out := &sink{}
	var dests []int
	send := func(to int, raw []byte) {
		dests = append(dests, to)
		out.send(to, raw)
	}
	e := NewEndpoint(cfg, 1, xrand.New(18), send, func(int, []byte) {})
	const peer, epoch = 0, 2
	for seq := uint32(1); seq <= 5; seq++ {
		e.HandleRaw(dataFrom(peer, epoch, seq, "d"), time.Duration(seq)*time.Millisecond)
		if len(out.frames) != int(seq) {
			t.Fatalf("after data seq %d: %d frames sent, want %d (one ack per frame, at once)", seq, len(out.frames), seq)
		}
		a := out.last()
		if a.Kind != KindAck || a.From != 1 || a.Epoch != epoch || a.Seq != seq || dests[len(dests)-1] != peer {
			t.Fatalf("after data seq %d: sent %+v to %d, want KindAck from 1 epoch %d seq %d to %d",
				seq, a, dests[len(dests)-1], epoch, seq, peer)
		}
		if w, ok := e.NextWake(); ok {
			t.Fatalf("after data seq %d: wake at %v with nothing to retransmit or flush", seq, w)
		}
	}
	e.Tick(time.Hour)
	if len(out.frames) != 5 || countKind(out.frames, KindAckBatch) != 0 {
		t.Fatalf("Tick sent %d more frames (%d batches); every ack was already out",
			len(out.frames)-5, countKind(out.frames, KindAckBatch))
	}
}

// TestAckBatchBudgetCaps: a forged range with an absurd count must not
// expand past the per-frame budget (DoS guard), but must still be
// well-formed enough to process the budgeted prefix.
func TestAckBatchBudgetCaps(t *testing.T) {
	out := &sink{}
	e := NewEndpoint(coalesceCfg(), 0, xrand.New(19), out.send, func(int, []byte) {})
	const peer = 1
	e.Send(peer, []byte("x"), 0)
	sent := out.last()
	if e.InFlight() != 1 {
		t.Fatal("send not tracked")
	}
	// A hostile batch claiming 65535 acks starting far from our seq: it
	// must neither panic nor ack our frame.
	evil := Frame{Kind: KindAckBatch, From: peer, Epoch: sent.Epoch,
		Payload: []byte{0x10, 0x00, 0x00, 0x00, 0xFF, 0xFF}}.Marshal()
	e.HandleRaw(evil, 0)
	if e.InFlight() != 1 {
		t.Fatal("hostile batch cleared unrelated in-flight state")
	}
	// A malformed (non-multiple-of-6) payload is dropped entirely.
	bad := Frame{Kind: KindAckBatch, From: peer, Epoch: sent.Epoch,
		Payload: []byte{0, 0, 0, 1, 0}}.Marshal()
	e.HandleRaw(bad, 0)
	if e.InFlight() != 1 {
		t.Fatal("malformed batch mutated state")
	}
	// The honest single-range batch clears it.
	good := Frame{Kind: KindAckBatch, From: peer, Epoch: sent.Epoch,
		Payload: []byte{0, 0, 0, byte(sent.Seq), 0, 1}}.Marshal()
	e.HandleRaw(good, 0)
	if e.InFlight() != 0 {
		t.Fatal("honest batch did not clear in-flight state")
	}
}
