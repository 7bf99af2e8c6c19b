package transport

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/xrand"
)

// testCfg gives each frame one retransmission, so a lost send fails
// within two jittered backoffs. Tests read retransmit deadlines from
// NextWake; breaker and quarantine deadlines are jitter-free.
func testCfg() Config {
	return Config{ARQ: true, MaxRetries: 1}
}

// sink collects an endpoint's outbound frames.
type sink struct {
	frames []Frame
}

func (s *sink) send(to int, raw []byte) {
	f, err := ParseFrame(raw)
	if err != nil {
		panic(err)
	}
	// Clone the payload: endpoints reuse scratch buffers.
	if f.Payload != nil {
		cp := make([]byte, len(f.Payload))
		copy(cp, f.Payload)
		f.Payload = cp
	}
	s.frames = append(s.frames, f)
}

func (s *sink) last() Frame { return s.frames[len(s.frames)-1] }

// ackFor builds the ack a peer would send for frame f.
func ackFor(peer int, f Frame) []byte {
	return Frame{Kind: KindAck, From: uint32(peer), Epoch: f.Epoch, Seq: f.Seq}.Marshal()
}

func TestRetryDelayMonotoneCapped(t *testing.T) {
	prev := time.Duration(0)
	for k := 0; k < 80; k++ {
		d := baseRetryDelay(k)
		if d < prev {
			t.Fatalf("attempt %d: base delay %v < previous %v (not monotone)", k, d, prev)
		}
		if d > retryCap {
			t.Fatalf("attempt %d: base delay %v exceeds cap %v", k, d, retryCap)
		}
		prev = d
	}
	if got := baseRetryDelay(0); got != retryBase {
		t.Fatalf("attempt 0 delay = %v, want retryBase %v", got, retryBase)
	}
	if got := baseRetryDelay(79); got != retryCap {
		t.Fatalf("attempt 79 delay = %v, want cap %v", got, retryCap)
	}
}

func TestRetryDelayJitterBounds(t *testing.T) {
	rng := xrand.New(xrand.TrialSeed(7, 3, 11))
	for k := 0; k < 2000; k++ {
		attempt := k % 10
		base := baseRetryDelay(attempt)
		lo := time.Duration(float64(base) * (1 - retryJitter))
		hi := time.Duration(float64(base) * (1 + retryJitter))
		d := retryDelay(attempt, rng)
		if d < lo || d > hi {
			t.Fatalf("attempt %d: jittered delay %v outside [%v, %v]", attempt, d, lo, hi)
		}
	}
}

func TestRetryDelayDeterministicPerStream(t *testing.T) {
	seed := xrand.TrialSeed(42, 1, 2)
	a, b := xrand.New(seed), xrand.New(seed)
	for k := 0; k < 500; k++ {
		da, db := retryDelay(k%8, a), retryDelay(k%8, b)
		if da != db {
			t.Fatalf("draw %d: %v != %v for identical TrialSeed streams", k, da, db)
		}
	}
	// A different trial index must give a different schedule.
	c := xrand.New(xrand.TrialSeed(42, 1, 3))
	same := true
	for k := 0; k < 50; k++ {
		if retryDelay(k%8, xrand.New(seed)) != retryDelay(k%8, c) {
			same = false
		}
	}
	if same {
		t.Fatal("distinct trial seeds produced identical jitter sequences")
	}
}

// drainRetries advances virtual time tick by tick until the endpoint
// has nothing in flight, without ever delivering an ack.
func drainRetries(e *Endpoint, now time.Duration) time.Duration {
	for {
		w, ok := e.NextWake()
		if !ok {
			return now
		}
		if w > now {
			now = w
		}
		e.Tick(now)
	}
}

func TestBreakerTransitions(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	out := &sink{}
	e := NewEndpoint(testCfg(), 0, xrand.New(1), out.send, func(int, []byte) {})
	e.SetMetrics(m)
	const peer = 7
	now := time.Duration(0)

	// Step 1: breakerThreshold exhausted sends trip the breaker.
	for i := 0; i < breakerThreshold; i++ {
		if got := e.BreakerState(peer); got != BreakerClosed {
			t.Fatalf("send %d: state = %v, want closed", i, got)
		}
		e.Send(peer, []byte("x"), now)
		now = drainRetries(e, now)
	}
	if got := e.BreakerState(peer); got != BreakerOpen {
		t.Fatalf("after %d failures: state = %v, want open", breakerThreshold, got)
	}
	if v := m.Opens.Value(); v != 1 {
		t.Fatalf("breaker opens = %d, want 1", v)
	}
	if v := m.OpenLinks.Value(); v != 1 {
		t.Fatalf("open links gauge = %d, want 1", v)
	}

	// Step 2: while open, sends degrade to best-effort (untracked).
	sent := len(out.frames)
	e.Send(peer, []byte("degraded"), now)
	if e.InFlight() != 0 {
		t.Fatal("open breaker must not track sends")
	}
	if len(out.frames) != sent+1 {
		t.Fatal("open breaker must still transmit best-effort")
	}
	if got := e.BreakerState(peer); got != BreakerOpen {
		t.Fatalf("state = %v, want still open before cooldown", got)
	}

	// Step 3: after the cooldown a send becomes the half-open probe.
	now += breakerCooldown + time.Millisecond // past reopenAt
	e.Send(peer, []byte("probe"), now)
	if got := e.BreakerState(peer); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if e.InFlight() != 1 {
		t.Fatal("probe must be tracked")
	}
	// Concurrent sends while the probe is pending stay best-effort.
	e.Send(peer, []byte("bypass"), now)
	if e.InFlight() != 1 {
		t.Fatal("only one probe may be in flight in half-open")
	}

	// Step 4: the probe's ack closes the breaker.
	probe := out.frames[sent+1]
	e.HandleRaw(ackFor(peer, probe), now)
	if got := e.BreakerState(peer); got != BreakerClosed {
		t.Fatalf("after probe ack: state = %v, want closed", got)
	}
	if v := m.Closes.Value(); v != 1 {
		t.Fatalf("breaker closes = %d, want 1", v)
	}
	if v := m.OpenLinks.Value(); v != 0 {
		t.Fatalf("open links gauge = %d, want 0", v)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	out := &sink{}
	e := NewEndpoint(testCfg(), 0, xrand.New(2), out.send, func(int, []byte) {})
	const peer = 3
	now := time.Duration(0)
	for i := 0; i < breakerThreshold; i++ {
		e.Send(peer, []byte("x"), now)
		now = drainRetries(e, now)
	}
	if got := e.BreakerState(peer); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	now += breakerCooldown + time.Millisecond
	e.Send(peer, []byte("probe"), now)
	if got := e.BreakerState(peer); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	now = drainRetries(e, now) // probe dies too
	if got := e.BreakerState(peer); got != BreakerOpen {
		t.Fatalf("after probe failure: state = %v, want open again", got)
	}
}

func TestBreakerFlappingQuarantine(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	out := &sink{}
	e := NewEndpoint(testCfg(), 0, xrand.New(3), out.send, func(int, []byte) {})
	e.SetMetrics(m)
	const peer = 5
	now := time.Duration(0)

	// flapLimit opens inside the flap window: open #1 via threshold,
	// then the rest via probe failures.
	for i := 0; i < breakerThreshold; i++ {
		e.Send(peer, []byte("x"), now)
		now = drainRetries(e, now)
	}
	for open := 1; open < flapLimit; open++ {
		if e.Quarantined(peer) {
			t.Fatalf("open %d: quarantined too early", open)
		}
		now += breakerCooldown + time.Millisecond
		e.Send(peer, []byte("probe"), now)
		now = drainRetries(e, now)
	}
	if !e.Quarantined(peer) {
		t.Fatalf("after %d opens in window: not quarantined (state=%v)", flapLimit, e.BreakerState(peer))
	}
	if v := m.Quarantines.Value(); v != 1 {
		t.Fatalf("quarantines = %d, want 1", v)
	}

	// Inside the quarantine, even cooldown-length waits admit nothing.
	now += breakerCooldown + time.Millisecond
	e.Send(peer, []byte("still exiled"), now)
	if e.InFlight() != 0 || !e.Quarantined(peer) {
		t.Fatal("quarantined link admitted a tracked send before the quarantine elapsed")
	}

	// After the quarantine: probe, ack, recovery.
	now += quarantine
	e.Send(peer, []byte("probe"), now)
	if got := e.BreakerState(peer); got != BreakerHalfOpen {
		t.Fatalf("post-quarantine state = %v, want half-open", got)
	}
	e.HandleRaw(ackFor(peer, out.last()), now)
	if got := e.BreakerState(peer); got != BreakerClosed {
		t.Fatalf("post-quarantine recovery: state = %v, want closed", got)
	}
	if e.Quarantined(peer) {
		t.Fatal("recovered link still reports quarantined")
	}
}

func TestAckClearsInFlightAndStaleEpochIgnored(t *testing.T) {
	out := &sink{}
	e := NewEndpoint(testCfg(), 0, xrand.New(4), out.send, func(int, []byte) {})
	const peer = 2
	e.Send(peer, []byte("hello"), 0)
	if e.InFlight() != 1 {
		t.Fatal("tracked send not in flight")
	}
	f := out.last()

	// An ack for a different epoch (a previous incarnation) is ignored.
	stale := Frame{Kind: KindAck, From: peer, Epoch: f.Epoch + 1, Seq: f.Seq}.Marshal()
	e.HandleRaw(stale, 0)
	if e.InFlight() != 1 {
		t.Fatal("stale-epoch ack cleared in-flight state")
	}

	e.HandleRaw(ackFor(peer, f), 0)
	if e.InFlight() != 0 {
		t.Fatal("matching ack did not clear in-flight state")
	}
	if _, ok := e.NextWake(); ok {
		t.Fatal("NextWake set with nothing in flight")
	}
}

func TestReceiveWindowDupSuppression(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	var got []string
	out := &sink{}
	e := NewEndpoint(testCfg(), 1, xrand.New(5), out.send,
		func(from int, p []byte) { got = append(got, string(p)) })
	e.SetMetrics(m)

	mk := func(epoch, seq uint32, s string) []byte {
		return Frame{Kind: KindData, From: 0, Epoch: epoch, Seq: seq, Payload: []byte(s)}.Marshal()
	}

	// Out-of-order arrivals within the window are all fresh.
	e.HandleRaw(mk(9, 5, "e"), 0)
	e.HandleRaw(mk(9, 1, "a"), 0)
	e.HandleRaw(mk(9, 3, "c"), 0)
	// Replays are suppressed but still acked.
	acks := countKind(out.frames, KindAck)
	e.HandleRaw(mk(9, 5, "e"), 0)
	e.HandleRaw(mk(9, 1, "a"), 0)
	if len(got) != 3 {
		t.Fatalf("delivered %d payloads, want 3 (dups suppressed): %q", len(got), got)
	}
	if v := m.DupDrops.Value(); v != 2 {
		t.Fatalf("dup drops = %d, want 2", v)
	}
	if na := countKind(out.frames, KindAck); na != acks+2 {
		t.Fatalf("duplicates must still be acked: %d acks, want %d", na, acks+2)
	}

	// Far ahead: window slides, older-than-64 is assumed duplicate.
	e.HandleRaw(mk(9, 500, "far"), 0)
	e.HandleRaw(mk(9, 400, "ancient"), 0)
	if len(got) != 4 || got[3] != "far" {
		t.Fatalf("window slide delivered %q, want only \"far\" appended", got)
	}

	// A new epoch (peer rebooted, seqs restart) resets the window.
	e.HandleRaw(mk(10, 1, "reborn"), 0)
	if len(got) != 5 || got[4] != "reborn" {
		t.Fatalf("epoch change did not reset the window: %q", got)
	}
}

func countKind(frames []Frame, k Kind) int {
	n := 0
	for _, f := range frames {
		if f.Kind == k {
			n++
		}
	}
	return n
}

func TestRetransmitStopsAfterLateAck(t *testing.T) {
	out := &sink{}
	e := NewEndpoint(testCfg(), 0, xrand.New(6), out.send, func(int, []byte) {})
	const peer = 1
	e.Send(peer, []byte("m"), 0)
	w, _ := e.NextWake()
	e.Tick(w) // one retransmission
	if v := countKind(out.frames, KindData); v != 2 {
		t.Fatalf("data transmissions = %d, want 2 (original + 1 retx)", v)
	}
	e.HandleRaw(ackFor(peer, out.last()), w)
	if e.InFlight() != 0 {
		t.Fatal("ack after retransmit did not clear in-flight state")
	}
	e.Tick(w + time.Second)
	if v := countKind(out.frames, KindData); v != 2 {
		t.Fatalf("retransmission after ack: %d data frames", v)
	}
}

// TestTickToleratesReentrantAcks wires two endpoints through a
// synchronous carrier, where send runs the peer's HandleRaw before it
// returns. The receiver coalesces acks. The sender's first frame is lost
// and the next ackMax-1 are delivered, so the receiver holds ackMax-1
// pending acks. When Tick retransmits seq 1, the receiver's pending acks
// reach ackMax and the batch for seqs 1-ackMax comes back into the
// sender inside Tick, acking seqs 2-ackMax before Tick reaches them.
// Tick must skip the frames that left the retransmit set under it.
func TestTickToleratesReentrantAcks(t *testing.T) {
	cfg := Config{ARQ: true, AckDelay: 5 * time.Millisecond}
	var a, b *Endpoint
	var now time.Duration
	lose := map[uint32]bool{1: true}
	var delivered []string
	a = NewEndpoint(cfg, 0, xrand.New(1), func(to int, raw []byte) {
		f, err := ParseFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == KindData && lose[f.Seq] {
			delete(lose, f.Seq)
			return
		}
		b.HandleRaw(raw, now)
	}, func(int, []byte) {})
	b = NewEndpoint(cfg, 1, xrand.New(2), func(to int, raw []byte) {
		a.HandleRaw(raw, now)
	}, func(_ int, p []byte) { delivered = append(delivered, string(p)) })

	for seq := 1; seq <= ackMax; seq++ {
		a.Send(1, []byte{byte(seq)}, 0)
	}
	if got := a.InFlight(); got != ackMax {
		t.Fatalf("%d frames in flight before Tick, want %d", got, ackMax)
	}
	now = time.Second
	a.Tick(now)
	if got := a.InFlight(); got != 0 {
		t.Fatalf("%d frames in flight after the re-entrant ack batch, want 0", got)
	}
	if len(delivered) != ackMax || delivered[0] != "\x02" || delivered[ackMax-1] != "\x01" {
		t.Fatalf("delivered %q, want seqs 2-%d, then 1", delivered, ackMax)
	}
	if _, ok := a.NextWake(); ok {
		t.Fatal("sender still wants a wake with nothing in flight")
	}
}

func TestRebootResetsEpochAndLinks(t *testing.T) {
	out := &sink{}
	e := NewEndpoint(testCfg(), 0, xrand.New(7), out.send, func(int, []byte) {})
	e.Send(1, []byte("old life"), 0)
	old := e.Epoch()
	e.Reboot()
	if e.Epoch() == old {
		t.Fatal("reboot kept the same epoch")
	}
	if e.InFlight() != 0 {
		t.Fatal("reboot kept in-flight frames")
	}
	e.Send(1, []byte("new life"), 0)
	if got := out.last(); got.Seq != 1 || got.Epoch == old {
		t.Fatalf("post-reboot frame = seq %d epoch %d, want seq 1 and a fresh epoch", got.Seq, got.Epoch)
	}
}

// TestRoundTripAllocs gates the transport hot path: one tracked send,
// its delivery, the ack, and the ack's processing.
func TestRoundTripAllocs(t *testing.T) {
	cfg := Config{ARQ: true}
	var a, b *Endpoint
	now := time.Duration(0)
	a = NewEndpoint(cfg, 0, xrand.New(8), func(to int, fr []byte) { b.HandleRaw(fr, now) }, func(int, []byte) {})
	b = NewEndpoint(cfg, 1, xrand.New(9), func(to int, fr []byte) { a.HandleRaw(fr, now) }, func(int, []byte) {})
	payload := []byte("0123456789abcdef0123456789abcdef")
	// Warm up maps and scratch.
	for i := 0; i < 64; i++ {
		a.Send(1, payload, now)
	}
	avg := testing.AllocsPerRun(200, func() {
		a.Send(1, payload, now)
	})
	// The tracked frame reuses the buffer of the frame acked before it,
	// and its retransmit record the link's in-flight slice.
	if avg != 0 {
		t.Fatalf("send+ack round trip allocates %.1f objects, want 0", avg)
	}
}
