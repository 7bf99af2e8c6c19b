package transport

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/xrand"
)

// quarantineLink drives a fresh link into its first quarantine:
// breakerThreshold exhausted sends trip the breaker, then probe failures
// rack up opens until the flap limit exiles the link. Returns the
// advanced clock.
func quarantineLink(t *testing.T, e *Endpoint, peer int, now time.Duration) time.Duration {
	t.Helper()
	for i := 0; i < breakerThreshold; i++ {
		e.Send(peer, []byte("x"), now)
		now = drainRetries(e, now)
	}
	for open := 1; open < flapLimit; open++ {
		now += breakerCooldown + time.Millisecond
		e.Send(peer, []byte("probe"), now)
		now = drainRetries(e, now)
	}
	if !e.Quarantined(peer) {
		t.Fatalf("setup: link not quarantined (state=%v)", e.BreakerState(peer))
	}
	return now
}

// TestBreakerPostQuarantineProbeLoss covers the probe that is admitted
// when a quarantine elapses and then dies: the link must fall back to
// plain open — one lost probe is not a fresh flapping streak — and only
// a renewed run of failed probes may quarantine it again.
func TestBreakerPostQuarantineProbeLoss(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	out := &sink{}
	e := NewEndpoint(testCfg(), 0, xrand.New(11), out.send, func(int, []byte) {})
	e.SetMetrics(m)
	const peer = 9
	now := quarantineLink(t, e, peer, 0)

	// Quarantine elapses; the next send is the half-open probe...
	now += quarantine + time.Millisecond
	e.Send(peer, []byte("probe"), now)
	if got := e.BreakerState(peer); got != BreakerHalfOpen {
		t.Fatalf("post-quarantine state = %v, want half-open", got)
	}
	// ...and it is lost.
	now = drainRetries(e, now)
	if got := e.BreakerState(peer); got != BreakerOpen {
		t.Fatalf("after lost post-quarantine probe: state = %v, want open", got)
	}
	if e.Quarantined(peer) {
		t.Fatal("a single lost probe after quarantine must not re-quarantine the link")
	}
	if v := m.Quarantines.Value(); v != 1 {
		t.Fatalf("quarantines = %d, want 1 (the original)", v)
	}

	// The flap counter restarted at the quarantine: the lost probe was
	// open #1, and only a full renewed run of flapLimit opens exiles the
	// link again.
	for open := 2; open <= flapLimit; open++ {
		if e.Quarantined(peer) {
			t.Fatalf("re-quarantined after only %d post-quarantine opens", open-1)
		}
		now += breakerCooldown + time.Millisecond
		e.Send(peer, []byte("probe"), now)
		now = drainRetries(e, now)
	}
	if !e.Quarantined(peer) {
		t.Fatalf("after %d failed post-quarantine probes: not re-quarantined (state=%v)",
			flapLimit, e.BreakerState(peer))
	}
	if v := m.Quarantines.Value(); v != 2 {
		t.Fatalf("quarantines = %d, want 2", v)
	}

	// Second quarantine over, probe acked: full recovery is still
	// reachable after repeated exile.
	now += quarantine + time.Millisecond
	e.Send(peer, []byte("probe"), now)
	e.HandleRaw(ackFor(peer, out.last()), now)
	if got := e.BreakerState(peer); got != BreakerClosed || e.Quarantined(peer) {
		t.Fatalf("recovery after second quarantine: state = %v, quarantined = %v",
			got, e.Quarantined(peer))
	}
}

// TestBreakerQuarantineAdmitsNothingMidway re-checks the exile contract
// at the exact boundary: one tick before the quarantine deadline a send
// stays best-effort, at the deadline it becomes the probe.
func TestBreakerQuarantineBoundary(t *testing.T) {
	out := &sink{}
	e := NewEndpoint(testCfg(), 0, xrand.New(12), out.send, func(int, []byte) {})
	const peer = 4
	now := quarantineLink(t, e, peer, 0)

	e.Send(peer, []byte("early"), now+quarantine-time.Millisecond)
	if e.InFlight() != 0 || !e.Quarantined(peer) {
		t.Fatal("send admitted one tick before the quarantine deadline")
	}
	e.Send(peer, []byte("probe"), now+quarantine)
	if got := e.BreakerState(peer); got != BreakerHalfOpen || e.InFlight() != 1 {
		t.Fatalf("send at the deadline: state = %v, inflight = %d; want half-open probe",
			got, e.InFlight())
	}
}

// TestDuplicateWindowSequenceWraparound exercises the receive-side
// duplicate-suppression window across the uint32 sequence wraparound:
// the window head must keep sliding 0xFFFFFFFF → 0, duplicates must be
// caught on both sides of the boundary, and far-stale sequence numbers
// must still read as old (not as 2^32 ahead).
func TestDuplicateWindowSequenceWraparound(t *testing.T) {
	l := &link{}
	const epoch = 1
	near := uint32(0xFFFFFFFD) // three before wrap

	if !l.accept(epoch, near) {
		t.Fatal("first frame rejected")
	}
	// March straight across the boundary: ...FFFE, FFFF, 0, 1, 2.
	for _, seq := range []uint32{0xFFFFFFFE, 0xFFFFFFFF, 0, 1, 2} {
		if !l.accept(epoch, seq) {
			t.Fatalf("in-order seq %#x rejected at the wraparound", seq)
		}
	}
	// Everything seen so far is a duplicate — including the pre-wrap
	// sequence numbers now behind a post-wrap window head.
	for _, seq := range []uint32{0xFFFFFFFD, 0xFFFFFFFE, 0xFFFFFFFF, 0, 1, 2} {
		if l.accept(epoch, seq) {
			t.Fatalf("duplicate seq %#x accepted across the wraparound", seq)
		}
	}
	// A gap that jumps the boundary: head 2 → 40 skips 3..39; the
	// skipped ones (some pre-computed around the wrap region) arrive
	// late and must be accepted exactly once.
	if !l.accept(epoch, 40) {
		t.Fatal("forward jump over the boundary region rejected")
	}
	for _, late := range []uint32{3, 39} {
		if !l.accept(epoch, late) {
			t.Fatalf("late seq %d inside the window rejected", late)
		}
		if l.accept(epoch, late) {
			t.Fatalf("late seq %d accepted twice", late)
		}
	}
	// Beyond the 64-wide window the receiver cannot judge: assume
	// duplicate. Head is 40, so 0xFFFFFFFD is 67 behind (through the
	// wrap) and 0xFFFFFFE8 is exactly 64 behind.
	head := uint32(40)
	for _, stale := range []uint32{0xFFFFFFFD, head - 64} {
		if l.accept(epoch, stale) {
			t.Fatalf("stale seq %#x (>= window width behind) accepted", stale)
		}
	}
	// A jump of 64+ wipes the mask but the new head is accepted and
	// still dedups.
	if !l.accept(epoch, 40+200) {
		t.Fatal("large forward jump rejected")
	}
	if l.accept(epoch, 40+200) {
		t.Fatal("head duplicate accepted after large jump")
	}
}

// TestDuplicateWindowWraparoundViaEndpoint runs the same boundary
// through the full endpoint path (HandleRaw + metrics) to pin the
// DupDrops accounting at the wrap.
func TestDuplicateWindowWraparoundViaEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	var delivered int
	e := NewEndpoint(testCfg(), 0, xrand.New(13), func(int, []byte) {},
		func(int, []byte) { delivered++ })
	e.SetMetrics(m)
	const peer = 6
	data := func(seq uint32) []byte {
		return Frame{Kind: KindData, From: peer, Epoch: 77, Seq: seq, Payload: []byte("r")}.Marshal()
	}
	for _, seq := range []uint32{0xFFFFFFFF, 0, 1} {
		e.HandleRaw(data(seq), 0)
	}
	if delivered != 3 {
		t.Fatalf("delivered %d in-order frames across the wrap, want 3", delivered)
	}
	// Retransmissions of all three arrive (the sender never saw our
	// acks): every one must be eaten, none re-delivered.
	for _, seq := range []uint32{0xFFFFFFFF, 0, 1} {
		e.HandleRaw(data(seq), 0)
	}
	if delivered != 3 {
		t.Fatalf("delivered %d after duplicate retransmissions, want still 3", delivered)
	}
	if v := m.DupDrops.Value(); v != 3 {
		t.Fatalf("dup drops = %d, want 3", v)
	}
}
