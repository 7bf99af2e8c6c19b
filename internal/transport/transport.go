// Package transport is a reliable datagram layer for the live runtime:
// sequence-numbered frames, per-link ACK/ARQ with capped exponential
// backoff and jitter, duplicate suppression via a sliding receive
// window, and per-link health tracking (consecutive-failure circuit
// breaker with half-open probing and quarantine of flapping links).
//
// The package is split along a carrier seam: an Endpoint is a pure,
// single-goroutine state machine driven by explicit timestamps, and a
// Carrier moves raw frames between endpoints. The in-process channel
// carrier inside internal/live and the UDP loopback carrier (udp.go)
// are interchangeable, so the same protocol code runs hermetically
// under go test -race and across real OS processes.
//
// Determinism: an Endpoint draws jitter from the *xrand.RNG it was
// constructed with and never consults wall-clock or global randomness,
// so identical call sequences produce identical retransmit schedules.
// For the same reason no decision path iterates a map: links sit in a
// slice sorted by peer and each link's in-flight frames in a slice in
// seq order, so Tick retransmits in (peer, seq) order. The zero Config
// turns the transport off: hosts deliver bare packets, as the experiment
// families without ARQ do.
package transport

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/xrand"
)

// Config holds the reliability knobs. The zero value means "off": hosts
// (Lab, internal/live) build no endpoints and deliver bare packets.
type Config struct {
	// ARQ turns the transport on: hosts run an Endpoint per node, which
	// frames every payload, acknowledges and retransmits it per link, and
	// suppresses duplicates at the receiver.
	ARQ bool

	// MaxRetries is how many times an unacked frame is retransmitted
	// before the send is declared failed (so a frame is sent at most
	// 1+MaxRetries times). Default 4.
	MaxRetries int

	// AckDelay enables ACK coalescing: instead of acking every data
	// frame immediately, acks accumulate per link for up to AckDelay and
	// go out as one range-coded KindAckBatch frame. Pending acks also
	// flush when ackMax of them are queued, when reverse data traffic
	// toward the peer proves the radio is about to be used anyway, and
	// when the link's breaker changes state. 0 acks every frame at once.
	AckDelay time.Duration
}

// Fixed reliability parameters. No deployment tunes them.
const (
	// retryBase is the backoff before the first retransmission; attempt
	// k waits retryBase<<k, capped at retryCap.
	retryBase = 20 * time.Millisecond
	retryCap  = 320 * time.Millisecond
	// retryJitter spreads each delay uniformly over ±retryJitter×delay
	// to decorrelate retransmit storms.
	retryJitter = 0.25

	// breakerThreshold opens a link's circuit breaker after this many
	// consecutive send failures (exhausted retry budgets).
	breakerThreshold = 3
	// breakerCooldown is how long an open breaker rejects traffic before
	// admitting a single half-open probe.
	breakerCooldown = 2 * time.Second
	// flapLimit quarantines a link that opens its breaker this many
	// times within flapWindow.
	flapLimit  = 3
	flapWindow = 10 * time.Second
	// quarantine is how long a flapping link is exiled: no tracked
	// sends, no probes, best-effort only.
	quarantine = 30 * time.Second

	// ackMax flushes a link's pending coalesced acks early once this
	// many are queued.
	ackMax = 16
)

// Validate rejects raw configs whose knobs withDefaults would otherwise
// quietly replace or misread: negative durations and retry counts are
// deployment-file typos, not requests for a default. Mirrors
// core.Config.Validate.
func (c Config) Validate() error {
	if c.AckDelay < 0 {
		return fmt.Errorf("transport: AckDelay must not be negative, got %v", c.AckDelay)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("transport: MaxRetries must not be negative, got %d", c.MaxRetries)
	}
	if c.AckDelay > 0 && !c.ARQ {
		return fmt.Errorf("transport: AckDelay requires ARQ")
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	return c
}

// baseRetryDelay is the deterministic (jitter-free) backoff before
// retransmission attempt k (0-based): retryBase<<k capped at retryCap.
func baseRetryDelay(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	d := retryBase
	// Shifting past 62 bits would overflow time.Duration long before
	// the cap comparison; clamp the exponent instead.
	for i := 0; i < attempt && d < retryCap; i++ {
		d <<= 1
	}
	return min(d, retryCap)
}

// retryDelay draws the jittered backoff before retransmission attempt k
// (0-based): baseRetryDelay spread uniformly over ±retryJitter×delay.
// All randomness comes from rng, so a seeded stream reproduces the
// exact retransmit schedule.
func retryDelay(attempt int, rng *xrand.RNG) time.Duration {
	base := baseRetryDelay(attempt)
	if rng == nil {
		return base
	}
	u := 2*rng.Float64() - 1 // uniform in [-1, 1)
	return time.Duration(float64(base) * (1 + retryJitter*u))
}

// BreakerState is a link's health phase.
type BreakerState uint8

const (
	// BreakerClosed: link healthy, sends tracked normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: link failed repeatedly; tracked sends are rejected
	// (degraded to best-effort) until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: cooldown elapsed; exactly one probe frame is in
	// flight. Its ack closes the breaker, its failure reopens it.
	BreakerHalfOpen
)

// String returns the state mnemonic.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// Metrics is the transport's obs instrumentation. All fields may be
// nil (the obs API is nil-safe), so an unobserved endpoint pays only
// nil checks.
type Metrics struct {
	TxData      *obs.Counter
	TxAcks      *obs.Counter
	RxData      *obs.Counter
	RxAcks      *obs.Counter
	Retransmits *obs.Counter
	DupDrops    *obs.Counter
	Failures    *obs.Counter
	Opens       *obs.Counter
	Closes      *obs.Counter
	Probes      *obs.Counter
	Quarantines *obs.Counter
	ParseErrs   *obs.Counter
	// OpenLinks counts links currently open or half-open.
	OpenLinks *obs.Gauge
}

// NewMetrics registers the transport metric set on r (nil-safe).
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		TxData:      r.Counter("transport_tx_data_total", "data frames sent (first transmissions)"),
		TxAcks:      r.Counter("transport_tx_acks_total", "ack frames sent"),
		RxData:      r.Counter("transport_rx_data_total", "fresh data frames delivered up"),
		RxAcks:      r.Counter("transport_rx_acks_total", "ack frames received"),
		Retransmits: r.Counter("transport_retransmits_total", "data frame retransmissions"),
		DupDrops:    r.Counter("transport_dup_drops_total", "duplicate data frames suppressed"),
		Failures:    r.Counter("transport_send_failures_total", "sends abandoned after the retry budget"),
		Opens:       r.Counter("transport_breaker_opens_total", "circuit breakers opened"),
		Closes:      r.Counter("transport_breaker_closes_total", "circuit breakers closed"),
		Probes:      r.Counter("transport_breaker_probes_total", "half-open probe frames admitted"),
		Quarantines: r.Counter("transport_quarantines_total", "flapping links quarantined"),
		ParseErrs:   r.Counter("transport_parse_errors_total", "undecodable frames dropped"),
		OpenLinks:   r.Gauge("transport_open_links", "links currently open or half-open"),
	}
}

// pending is one unacked data frame awaiting retransmission or failure.
type pending struct {
	seq      uint32
	tick     uint32 // Endpoint.ticks when sent: Tick skips frames sent during itself
	raw      []byte // full marshalled frame, owned by the endpoint
	attempts int    // retransmissions performed so far
	nextAt   time.Duration
}

// link is the per-peer ARQ and health state.
type link struct {
	peer    int
	nextSeq uint32
	// inflight holds the tracked, unacked data frames in send (and so
	// seq) order.
	inflight []pending

	// Receive side: sliding duplicate-suppression window. rcvMask bit k
	// marks seq rcvHigh-k as seen; anything older than 64 behind is
	// assumed to be a duplicate.
	rcvInit  bool
	rcvEpoch uint32
	rcvHigh  uint32
	rcvMask  uint64

	// Health: consecutive failures, breaker phase, flap bookkeeping.
	fails       int
	state       BreakerState
	reopenAt    time.Duration // when an open breaker admits a probe
	probe       uint32        // seq of the in-flight half-open probe
	flapStart   time.Duration
	flapOpens   int
	quarantined bool // this open is a quarantine (flapping link)

	// Coalesced-ack accumulator (Config.AckDelay > 0): sequence numbers
	// awaiting acknowledgement toward this peer, the epoch they all
	// belong to, and the deadline set by the oldest of them.
	ackPend  []uint32
	ackEpoch uint32
	ackDue   time.Duration

	// wake caches the earliest of the link's retransmit and ack
	// deadlines.
	wake deadline
}

// deadline caches the earliest of a set of deadlines. lower records a
// new deadline; drop records that one went away or moved later, which
// makes the cache stale when it was the earliest. The owner recomputes
// a stale cache from its state, so a cached value is always exact.
type deadline struct {
	at    time.Duration
	set   bool
	stale bool
}

func (d *deadline) lower(at time.Duration) {
	if !d.stale && (!d.set || at < d.at) {
		d.at, d.set = at, true
	}
}

func (d *deadline) drop(at time.Duration) {
	if d.set && at == d.at {
		d.stale = true
	}
}

// Endpoint is one node's reliability state machine. It is NOT
// goroutine-safe: the owner (a live host goroutine or the Lab) must
// serialize Send, HandleRaw, Tick, and Reboot, passing its own
// monotonic notion of now.
//
// Buffer ownership: the frame slice passed to the send callback is
// only valid for the duration of the call — carriers must copy if they
// retain (the same contract as internal/sim's packet arena; see
// docs/TRANSPORT.md). Likewise the payload passed to deliver aliases
// the raw datagram given to HandleRaw.
type Endpoint struct {
	cfg     Config
	local   int
	epoch   uint32
	rng     *xrand.RNG
	send    func(to int, frame []byte)
	deliver func(from int, payload []byte)
	m       Metrics

	links map[int]*link
	// order holds the same links sorted by peer: every walk over links
	// (Tick, NextWake) goes through it, so none depends on map layout.
	order []*link
	wake  deadline // earliest deadline across all links
	ticks uint32   // Tick calls so far
	// rawFree holds the buffers of retired tracked frames for reuse.
	// sending counts the send calls in progress that were handed a
	// tracked frame: a synchronous carrier may still be reading a frame
	// that an ack retired re-entrantly, so buffers retired meanwhile
	// wait in rawHeld until the outermost such call returns.
	rawFree [][]byte
	rawHeld [][]byte
	sending int
	scratch []byte // marshal buffer for acks and untracked sends
	ackBuf  []byte // range-payload scratch for coalesced acks
}

// NewEndpoint builds an endpoint for node local. rng seeds the boot
// epoch and all jitter draws; send transmits a marshalled frame toward
// a peer; deliver hands a fresh payload up the stack. cfg is
// normalized with defaults. An endpoint always acknowledges and
// retransmits; cfg.ARQ only tells hosts whether to build endpoints.
func NewEndpoint(cfg Config, local int, rng *xrand.RNG, send func(to int, frame []byte), deliver func(from int, payload []byte)) *Endpoint {
	// Programmer error, same contract as live.Start's behavior check:
	// defaults must never paper over a config that Validate rejects.
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Endpoint{
		cfg:     cfg.withDefaults(),
		local:   local,
		rng:     rng,
		send:    send,
		deliver: deliver,
		links:   make(map[int]*link),
	}
	e.epoch = e.newEpoch()
	return e
}

// SetMetrics attaches obs instrumentation. Metrics never influence
// behavior, so the zero Metrics (all nil) is always safe.
func (e *Endpoint) SetMetrics(m Metrics) { e.m = m }

// Epoch returns the current boot incarnation identifier.
func (e *Endpoint) Epoch() uint32 { return e.epoch }

func (e *Endpoint) newEpoch() uint32 {
	// Epochs only need to differ between incarnations; a random draw
	// avoids persisting boot counters across crash/reboot.
	for {
		if ep := uint32(e.rng.Uint64()); ep != 0 && ep != e.epoch {
			return ep
		}
	}
}

func (e *Endpoint) link(peer int) *link {
	l, ok := e.links[peer]
	if !ok {
		l = &link{peer: peer}
		e.links[peer] = l
		e.order = slices.Insert(e.order, e.search(peer), l)
	}
	return l
}

// search returns the index in e.order of the link toward peer, or where
// it belongs.
func (e *Endpoint) search(peer int) int {
	i, _ := slices.BinarySearchFunc(e.order, peer, func(l *link, peer int) int { return cmp.Compare(l.peer, peer) })
	return i
}

// find returns the index of seq in l.inflight, or -1.
func (l *link) find(seq uint32) int {
	for i := range l.inflight {
		if l.inflight[i].seq == seq {
			return i
		}
	}
	return -1
}

// lower and drop keep the link's and the endpoint's deadline caches
// (see deadline) in step with l's deadlines.
func (e *Endpoint) lower(l *link, at time.Duration) {
	l.wake.lower(at)
	e.wake.lower(at)
}

func (e *Endpoint) drop(l *link, at time.Duration) {
	l.wake.drop(at)
	e.wake.drop(at)
}

// takeRaw returns an empty buffer for a tracked frame of size bytes.
func (e *Endpoint) takeRaw(size int) []byte {
	n := len(e.rawFree)
	if n == 0 {
		return make([]byte, 0, size)
	}
	b := e.rawFree[n-1]
	e.rawFree = e.rawFree[:n-1]
	return b
}

// sendTracked hands a tracked frame to the carrier.
func (e *Endpoint) sendTracked(to int, raw []byte) {
	e.sending++
	e.send(to, raw)
	e.sending--
	if e.sending == 0 && len(e.rawHeld) > 0 {
		e.rawFree = append(e.rawFree, e.rawHeld...)
		clear(e.rawHeld)
		e.rawHeld = e.rawHeld[:0]
	}
}

// retire drops l.inflight[i], keeping the rest in send order.
func (e *Endpoint) retire(l *link, i int) {
	e.drop(l, l.inflight[i].nextAt)
	if raw := l.inflight[i].raw[:0]; e.sending == 0 {
		e.rawFree = append(e.rawFree, raw)
	} else {
		e.rawHeld = append(e.rawHeld, raw)
	}
	n := len(l.inflight) - 1
	copy(l.inflight[i:], l.inflight[i+1:])
	l.inflight[n] = pending{}
	l.inflight = l.inflight[:n]
}

// after returns the index of the first in-flight frame sent after seq.
// Frames in flight on one link span far less than 2^31 seqs, so the
// serial-number comparison orders them across the uint32 wraparound.
func (l *link) after(seq uint32) int {
	for i := range l.inflight {
		if int32(l.inflight[i].seq-seq) > 0 {
			return i
		}
	}
	return len(l.inflight)
}

// BreakerState reports the health phase of the link toward peer.
func (e *Endpoint) BreakerState(peer int) BreakerState {
	if l, ok := e.links[peer]; ok {
		return l.state
	}
	return BreakerClosed
}

// Quarantined reports whether the link toward peer is currently exiled
// for flapping (no tracked sends or probes until the quarantine
// deadline passes and a probe succeeds).
func (e *Endpoint) Quarantined(peer int) bool {
	l, ok := e.links[peer]
	return ok && l.state == BreakerOpen && l.quarantined
}

// InFlight returns the number of tracked, unacked data frames across
// all links.
func (e *Endpoint) InFlight() int {
	n := 0
	for _, l := range e.order {
		n += len(l.inflight)
	}
	return n
}

// Send frames payload toward peer and transmits it. The frame is
// tracked for retransmission unless the link's breaker rejects it, in
// which case the frame still goes out once, best-effort (graceful
// degradation: an open breaker never silences a node, it only stops
// the transport from burning retries on a dead peer).
func (e *Endpoint) Send(to int, payload []byte, now time.Duration) {
	l := e.link(to)
	// Reverse traffic flushes coalesced acks first: the radio is about
	// to carry a frame to this peer anyway, so pending acks ride the
	// same burst instead of waiting out their delay.
	e.flushAcks(l, now)
	l.nextSeq++
	f := Frame{Kind: KindData, From: uint32(e.local), Epoch: e.epoch, Seq: l.nextSeq, Payload: payload}
	e.m.TxData.Inc()
	if e.admit(l, now) {
		raw := f.AppendMarshal(e.takeRaw(HeaderSize + len(payload)))
		at := now + retryDelay(0, e.rng)
		l.inflight = append(l.inflight, pending{seq: l.nextSeq, tick: e.ticks, raw: raw, nextAt: at})
		e.lower(l, at)
		if l.state == BreakerHalfOpen {
			l.probe = l.nextSeq
		}
		e.sendTracked(to, raw)
		return
	}
	e.scratch = f.AppendMarshal(e.scratch[:0])
	e.send(to, e.scratch)
}

// admit decides whether a tracked send may proceed on l, advancing the
// breaker open → half-open when the cooldown has elapsed.
func (e *Endpoint) admit(l *link, now time.Duration) bool {
	switch l.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now < l.reopenAt {
			return false
		}
		l.state = BreakerHalfOpen
		l.quarantined = false
		l.probe = 0
		e.m.Probes.Inc()
		return true
	default: // BreakerHalfOpen
		// One probe at a time; everything else degrades to best-effort
		// until the probe resolves.
		return l.probe == 0
	}
}

// HandleRaw processes one inbound datagram (exactly one frame).
func (e *Endpoint) HandleRaw(raw []byte, now time.Duration) {
	f, err := ParseFrame(raw)
	if err != nil {
		e.m.ParseErrs.Inc()
		return
	}
	from := int(f.From)
	switch f.Kind {
	case KindData:
		l := e.link(from)
		fresh := l.accept(f.Epoch, f.Seq)
		if e.cfg.AckDelay > 0 {
			e.queueAck(l, f.Epoch, f.Seq, now)
		} else {
			ack := Frame{Kind: KindAck, From: uint32(e.local), Epoch: f.Epoch, Seq: f.Seq}
			e.scratch = ack.AppendMarshal(e.scratch[:0])
			e.m.TxAcks.Inc()
			e.send(from, e.scratch)
		}
		if !fresh {
			e.m.DupDrops.Inc()
			return
		}
		e.m.RxData.Inc()
		e.deliver(from, f.Payload)
	case KindAck:
		e.m.RxAcks.Inc()
		if f.Epoch != e.epoch {
			return // addressed to a previous incarnation
		}
		e.ackOne(e.link(from), f.Seq, now)
	case KindAckBatch:
		e.m.RxAcks.Inc()
		if f.Epoch != e.epoch {
			return // addressed to a previous incarnation
		}
		if len(f.Payload)%AckRangeSize != 0 {
			e.m.ParseErrs.Inc()
			return
		}
		l := e.link(from)
		// Bound the expansion work per frame: a forged 65535-count range
		// must not turn one datagram into a 65535-iteration loop. Real
		// batches are ackMax seqs at most, far under the cap.
		budget := maxAckBatchSeqs
		for p := f.Payload; len(p) >= AckRangeSize; p = p[AckRangeSize:] {
			start := binary.BigEndian.Uint32(p)
			count := int(binary.BigEndian.Uint16(p[4:6]))
			for i := 0; i < count && budget > 0; i++ {
				budget--
				// start+i wraps mod 2^32, matching the encoder: a range
				// may span the sequence wraparound.
				e.ackOne(l, start+uint32(i), now)
			}
		}
	default:
		// Probes are a carrier concern; an endpoint ignores them.
	}
}

// maxAckBatchSeqs caps how many sequence numbers one KindAckBatch frame
// may acknowledge.
const maxAckBatchSeqs = 4096

// ackOne applies one acknowledged sequence number to l: the frame leaves
// the retransmit set and the link is proven alive, closing its breaker
// if it was open or probing. Idempotent, so replayed or overlapping acks
// are harmless.
func (e *Endpoint) ackOne(l *link, seq uint32, now time.Duration) {
	if i := l.find(seq); i >= 0 {
		e.retire(l, i)
	}
	l.fails = 0
	if l.state != BreakerClosed {
		// Any ack proves the link is alive again — including acks
		// for best-effort frames sent while the breaker was open.
		l.state = BreakerClosed
		l.probe = 0
		e.m.Closes.Inc()
		e.m.OpenLinks.Dec()
		// Breaker state change: whatever acks we owe this peer go out
		// now, while the link is demonstrably usable.
		e.flushAcks(l, now)
	}
}

// queueAck records one coalesced acknowledgement toward l's peer,
// flushing on epoch change (acks echo the data epoch, so one batch
// cannot mix incarnations) and on the ackMax high-water mark. The first
// queued ack starts the AckDelay deadline clock; Tick and NextWake
// honor it.
func (e *Endpoint) queueAck(l *link, epoch, seq uint32, now time.Duration) {
	if len(l.ackPend) > 0 && l.ackEpoch != epoch {
		e.flushAcks(l, now)
	}
	if len(l.ackPend) == 0 {
		l.ackEpoch = epoch
		l.ackDue = now + e.cfg.AckDelay
		e.lower(l, l.ackDue)
	}
	l.ackPend = append(l.ackPend, seq)
	if len(l.ackPend) >= ackMax {
		e.flushAcks(l, now)
	}
}

// flushAcks drains l's pending coalesced acks as one KindAckBatch frame:
// sequence numbers are sorted in serial-number order (so runs that cross
// the uint32 wraparound still coalesce) and folded into (start, count)
// ranges. No-op when nothing is pending.
func (e *Endpoint) flushAcks(l *link, now time.Duration) {
	if len(l.ackPend) == 0 {
		return
	}
	slices.SortFunc(l.ackPend, func(a, b uint32) int { return int(int32(a - b)) })
	e.ackBuf = e.ackBuf[:0]
	start, count := l.ackPend[0], uint32(1)
	emit := func() {
		e.ackBuf = binary.BigEndian.AppendUint32(e.ackBuf, start)
		e.ackBuf = binary.BigEndian.AppendUint16(e.ackBuf, uint16(count))
	}
	for _, s := range l.ackPend[1:] {
		if s == start+count-1 {
			continue // duplicate (retransmission acked twice)
		}
		if s == start+count && count < MaxPayload {
			count++
			continue
		}
		emit()
		start, count = s, 1
	}
	emit()
	f := Frame{Kind: KindAckBatch, From: uint32(e.local), Epoch: l.ackEpoch, Payload: e.ackBuf}
	e.scratch = f.AppendMarshal(e.scratch[:0])
	e.m.TxAcks.Inc()
	l.ackPend = l.ackPend[:0]
	e.drop(l, l.ackDue)
	e.send(l.peer, e.scratch)
}

// accept runs the duplicate-suppression window, returning true when
// (epoch, seq) has not been seen before on this link.
func (l *link) accept(epoch, seq uint32) bool {
	if !l.rcvInit || l.rcvEpoch != epoch {
		// First frame from this incarnation: reset the window.
		l.rcvInit = true
		l.rcvEpoch = epoch
		l.rcvHigh = seq
		l.rcvMask = 1
		return true
	}
	// Serial-number arithmetic (RFC 1982 style): compare through the
	// signed difference so the window keeps sliding across the uint32
	// wraparound. Without it, the first frame after seq 0xFFFFFFFF would
	// read as 2^32 "behind" the window head and every subsequent frame
	// on the link would be eaten as a duplicate until the next reboot
	// epoch.
	diff := int32(seq - l.rcvHigh)
	if diff > 0 {
		shift := uint32(diff)
		if shift >= 64 {
			l.rcvMask = 0
		} else {
			l.rcvMask <<= shift
		}
		l.rcvMask |= 1
		l.rcvHigh = seq
		return true
	}
	delta := uint32(-diff)
	if delta >= 64 {
		return false // too old to judge: assume duplicate
	}
	bit := uint64(1) << delta
	if l.rcvMask&bit != 0 {
		return false
	}
	l.rcvMask |= bit
	return true
}

// Tick retransmits due frames, ages out exhausted ones, and flushes
// coalesced acks whose delay has expired. It visits links in peer order
// and each link's frames in seq order, so jitter draws happen in a
// deterministic order.
//
// A synchronous carrier may re-enter the endpoint from send: an ack can
// retire a frame Tick has not reached yet, and the behavior may send new
// frames. Tick skips retired frames and leaves frames sent during itself
// to the next Tick.
func (e *Endpoint) Tick(now time.Duration) {
	if w, ok := e.NextWake(); !ok || w > now {
		return
	}
	e.ticks++
	for i := 0; i < len(e.order); i++ {
		l := e.order[i]
		if l.wake.stale {
			l.refresh()
		}
		if !l.wake.set || l.wake.at > now {
			continue
		}
		e.tickLink(l, now)
		if e.order[i] != l {
			// A re-entrant send created links ahead of l.
			i = e.search(l.peer)
		}
	}
}

// tickLink is Tick for one link.
func (e *Endpoint) tickLink(l *link, now time.Duration) {
	if len(l.ackPend) > 0 && l.ackDue <= now {
		e.flushAcks(l, now)
	}
	for i := 0; i < len(l.inflight); {
		p := &l.inflight[i]
		if p.tick == e.ticks {
			return // sent during this Tick, as is everything after it
		}
		if p.nextAt > now {
			i++
			continue
		}
		seq := p.seq
		if p.attempts >= e.cfg.MaxRetries {
			e.retire(l, i)
			e.m.Failures.Inc()
			e.fail(l, seq, now)
		} else {
			p.attempts++
			e.drop(l, p.nextAt)
			p.nextAt = now + retryDelay(p.attempts, e.rng)
			e.lower(l, p.nextAt)
			e.m.Retransmits.Inc()
			e.sendTracked(l.peer, p.raw)
		}
		// send and fail may re-enter the endpoint and retire or add
		// frames; resume after seq.
		if i < len(l.inflight) && l.inflight[i].seq == seq {
			i++
		} else {
			i = l.after(seq)
		}
	}
}

// fail records an exhausted send on l and runs the breaker transition.
func (e *Endpoint) fail(l *link, seq uint32, now time.Duration) {
	if l.state == BreakerHalfOpen && seq == l.probe {
		// The probe itself died: straight back to open.
		e.open(l, now)
		return
	}
	l.fails++
	if l.state == BreakerClosed && l.fails >= breakerThreshold {
		e.open(l, now)
	}
}

// open transitions l to BreakerOpen, counting flaps and quarantining a
// link that keeps bouncing open within the flap window.
func (e *Endpoint) open(l *link, now time.Duration) {
	// Breaker state change: flush whatever acks we owe the peer before
	// the link is written off, so our outbound silence does not also
	// starve the peer's retransmit state of acknowledgements.
	e.flushAcks(l, now)
	if l.state == BreakerClosed {
		e.m.OpenLinks.Inc()
	}
	l.state = BreakerOpen
	l.fails = 0
	l.probe = 0
	e.m.Opens.Inc()
	if now-l.flapStart > flapWindow {
		l.flapStart = now
		l.flapOpens = 0
	}
	l.flapOpens++
	if l.flapOpens >= flapLimit {
		l.reopenAt = now + quarantine
		l.flapOpens = 0
		l.flapStart = now + quarantine
		l.quarantined = true
		e.m.Quarantines.Inc()
		return
	}
	l.reopenAt = now + breakerCooldown
}

// NextWake returns the earliest deadline across all links — retransmit
// timers and coalesced-ack flushes — or false when neither is pending.
// It reads the cached earliest deadline and recomputes it only after
// the earliest deadline went away, from the links' own caches.
func (e *Endpoint) NextWake() (time.Duration, bool) {
	if e.wake.stale {
		e.wake = deadline{}
		for _, l := range e.order {
			if l.wake.stale {
				l.refresh()
			}
			if l.wake.set {
				e.wake.lower(l.wake.at)
			}
		}
	}
	return e.wake.at, e.wake.set
}

// refresh recomputes l's deadline cache from its state.
func (l *link) refresh() {
	l.wake = deadline{}
	for i := range l.inflight {
		l.wake.lower(l.inflight[i].nextAt)
	}
	if len(l.ackPend) > 0 {
		l.wake.lower(l.ackDue)
	}
}

// Reboot resets the endpoint to a fresh incarnation: a new epoch,
// empty links, no in-flight state. Receivers notice the epoch change
// and reset their windows; acks for the old epoch are ignored.
func (e *Endpoint) Reboot() {
	open := 0
	for _, l := range e.order {
		if l.state != BreakerClosed {
			open++
		}
	}
	e.m.OpenLinks.Add(-int64(open))
	e.epoch = e.newEpoch()
	e.links = make(map[int]*link)
	e.order = nil
	e.wake = deadline{}
}
