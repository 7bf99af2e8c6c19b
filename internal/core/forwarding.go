package core

import (
	"time"

	"repro/internal/crypt"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/wire"
)

// This file implements Section IV-C: secure message forwarding. Readings
// are (optionally) end-to-end protected for the base station (Step 1),
// then relayed hop by hop under cluster keys (Step 2) along a hop-count
// gradient established by base-station beacons. The gradient substrate is
// this implementation's routing choice; the paper is explicitly
// routing-agnostic ("no matter what routing protocol is followed,
// intermediate nodes need to verify that the message is not tampered with,
// replayed or revealed to unauthorized parties, before forwarding it").

// TriggerBeacon floods a new routing-beacon round from the base station.
// Call through the runtime's Do hook; it is a no-op on non-base-station
// nodes or before the operational phase. It leaves the periodic beacon
// schedule alone.
func (s *Sensor) TriggerBeacon(ctx node.Context) {
	if s.bs == nil || s.phase != PhaseOperational || !s.ks.InCluster {
		return
	}
	s.bs.round++
	s.round = s.bs.round
	s.hop = 0
	sc := ctx.Scratch()
	sc.BodyBuf = (&wire.Beacon{Round: s.bs.round, Hop: 0}).AppendMarshal(sc.BodyBuf[:0])
	ctx.Broadcast(s.sealFrame(ctx, wire.TBeacon, s.ks.CID, s.ks.ClusterKey, sc.BodyBuf))
}

// beaconTick floods a beacon round and arms the next one: the base
// station's single periodic beacon chain, started at the operational
// transition.
func (s *Sensor) beaconTick(ctx node.Context) {
	s.TriggerBeacon(ctx)
	s.armBeacon(ctx)
}

// armBeacon schedules the base station's next periodic beacon, if
// BeaconPeriod is set.
func (s *Sensor) armBeacon(ctx node.Context) {
	if s.bs != nil && s.cfg.BeaconPeriod > 0 {
		ctx.SetTimer(s.cfg.BeaconPeriod, tagBeacon)
	}
}

// onBeacon adopts and propagates routing gradients: a node takes hop+1
// from any authenticated beacon that starts a newer round or shortens its
// current-round distance, and re-floods once per improvement.
func (s *Sensor) onBeacon(ctx node.Context, f *wire.Frame) {
	if s.phase != PhaseOperational || !s.ks.InCluster || s.bs != nil {
		return
	}
	body, ok := s.openWithEpochFallback(ctx, f)
	if !ok {
		return
	}
	b, err := wire.UnmarshalBeacon(body)
	if err != nil {
		return
	}
	newHop := b.Hop + 1
	improves := b.Round > s.round || (b.Round == s.round && newHop < s.hop)
	if !improves {
		return
	}
	s.round = b.Round
	s.hop = newHop
	sc := ctx.Scratch()
	sc.BodyBuf = (&wire.Beacon{Round: b.Round, Hop: s.hop}).AppendMarshal(sc.BodyBuf[:0])
	ctx.Broadcast(s.sealFrame(ctx, wire.TBeacon, s.ks.CID, s.ks.ClusterKey, sc.BodyBuf))
}

// SendReading originates one sensed reading toward the base station. Call
// through the runtime's Do hook. It returns the per-origin sequence number
// used, or false if the node cannot send (not operational / clusterless).
func (s *Sensor) SendReading(ctx node.Context, data []byte) (uint32, bool) {
	if s.phase != PhaseOperational || !s.ks.InCluster {
		return 0, false
	}
	s.readingSeq++
	sc := ctx.Scratch()
	inner := &wire.Inner{Src: s.id}
	if !s.cfg.DisableStep1 {
		// Step 1: y1 ← E_Kencr(D), t1 ← MAC_KMAC(y1), keys derived from
		// Ki, counter shared with the base station for semantic security.
		s.readingCtr++
		inner.Counter = s.readingCtr
		inner.Encrypted = true
		aad := s.innerAAD(s.id)
		sc.InnerSealBuf = sc.AppendSeal(s.sealerFor(ctx, s.ks.NodeKey), sc.InnerSealBuf[:0], s.readingCtr, aad, data)
		inner.Sealed = sc.InnerSealBuf
		ctx.ChargeCipher(len(data))
		ctx.ChargeMAC(len(data) + len(aad))
	} else {
		// Data-fusion mode: "c1 ... is simply the data D".
		inner.Sealed = data
	}
	s.dedup.insert(dedupKey{s.id, s.readingSeq}, dedupCapacity)
	sc.InnerBuf = inner.AppendMarshal(sc.InnerBuf[:0])
	s.relayReading(ctx, sc.InnerBuf, s.id, s.readingSeq)
	return s.readingSeq, true
}

// InnerAAD is the associated data of a Step-1 envelope: it binds the
// envelope to its origin so a captured envelope cannot be replayed as
// another node's reading. Exported as part of the wire contract.
func InnerAAD(origin node.ID) []byte {
	return []byte{0xE2, byte(origin >> 24), byte(origin >> 16), byte(origin >> 8), byte(origin)}
}

// peekAllows consults the data-fusion Peek hook for a plaintext
// (Step-1-disabled) reading; readings without a hook, or encrypted ones,
// always pass. The Sealed bytes handed to the hook are transient.
func (s *Sensor) peekAllows(origin node.ID, seq uint32, innerBytes []byte) bool {
	if s.Peek == nil {
		return true
	}
	var in wire.Inner
	if err := wire.UnmarshalInnerInto(&in, innerBytes); err == nil && !in.Encrypted {
		return s.Peek(origin, seq, in.Sealed)
	}
	return true
}

// relayReading queues one verified (or just originated) reading for the
// next hop's DATA frame and registers it for ack-gated retry.
func (s *Sensor) relayReading(ctx node.Context, innerBytes []byte, origin node.ID, seq uint32) {
	s.enqueueReading(ctx, innerBytes, origin, seq)
	s.trackPending(ctx, innerBytes, origin, seq)
}

// deliver terminates a reading at the base station: verify the Step-1
// envelope (counter window, MAC) against the authority's key registry and
// record the delivery. innerBytes may alias scratch; everything retained
// is copied into the delivery arena.
func (s *Sensor) deliver(ctx node.Context, origin node.ID, seq uint32, innerBytes []byte) {
	var in wire.Inner
	if err := wire.UnmarshalInnerInto(&in, innerBytes); err != nil {
		return
	}
	var data []byte
	if in.Encrypted {
		last := s.bs.counters[in.Src]
		if in.Counter <= last || in.Counter > last+counterWindow {
			return // replayed or too-far-future counter
		}
		ki, cached := s.bs.nodeKeys[in.Src]
		if !cached {
			if s.bs.nodeKeys == nil {
				s.bs.nodeKeys = make(map[node.ID]crypt.Key, 64)
			} else if len(s.bs.nodeKeys) >= maxCachedSealers {
				clear(s.bs.nodeKeys)
			}
			ki = s.bs.auth.NodeKey(in.Src)
			s.bs.nodeKeys[in.Src] = ki
		}
		aad := s.innerAAD(in.Src)
		ctx.ChargeMAC(len(in.Sealed) + len(aad))
		sc := ctx.Scratch()
		pt, ok := sc.AppendOpen(s.sealerFor(ctx, ki), sc.InnerOpenBuf[:0], in.Counter, aad, in.Sealed)
		if !ok {
			return
		}
		sc.InnerOpenBuf = pt
		ctx.ChargeCipher(len(pt))
		// Origin must match the key that authenticated the envelope.
		if in.Src != origin {
			return
		}
		s.bs.counters[in.Src] = in.Counter
		// The plaintext is retained forever in Deliveries, so it moves
		// from the open scratch into the append-only arena — a stable
		// copy without a per-packet allocation.
		data = s.bs.arenaCopy(pt)
	} else {
		if in.Src != origin {
			return
		}
		data = s.bs.arenaCopy(in.Sealed)
	}
	del := Delivery{
		Origin:    origin,
		Seq:       seq,
		Data:      data,
		At:        ctx.Now(),
		Encrypted: in.Encrypted,
	}
	s.bs.deliveries = append(s.bs.deliveries, del)
	s.om.deliveries.Inc()
	if s.bs.OnDeliver != nil {
		s.bs.OnDeliver(del)
	}
	if s.cfg.DataRetries > 0 {
		// Echo the accepted delivery at hop 0. Hop-1 forwarders never
		// overhear a downstream relay (there is none), so without this
		// they would retry deliveries that already landed; the gradient
		// rule (Hop 0 <= anyone's hop) keeps the echo from propagating.
		s.sendOne(ctx, innerBytes, origin, seq)
	}
}

// --- DATA frames: one reading or a batch (docs/THROUGHPUT.md) ---

// batchEntry is one queued reading: its (origin, seq) identity plus the
// position of its inner envelope in the shared batchBuf slab.
type batchEntry struct {
	origin node.ID
	seq    uint32
	off    int
	n      int
}

// maxBatchBytes and maxBatchCount cap the queued inner bytes and tuple
// count per frame so the sealed payload (inners + 10 bytes of per-tuple
// framing + header + seal overhead) can never approach wire.MaxPayload,
// whatever BatchSize says.
const (
	maxBatchBytes = 32 << 10
	maxBatchCount = 2048
)

// enqueueReading queues one inner envelope for the next DATA frame,
// flushing immediately when the queue fills (by count or bytes). With
// BatchSize <= 1 every reading fills it, so the frame goes out at once
// with no timer armed; otherwise the first queued entry arms the
// deadline flush.
func (s *Sensor) enqueueReading(ctx node.Context, inner []byte, origin node.ID, seq uint32) {
	if len(s.batchBuf)+len(inner) > maxBatchBytes {
		s.flushBatch(ctx)
	}
	off := len(s.batchBuf)
	s.batchBuf = append(s.batchBuf, inner...)
	s.batchQ = append(s.batchQ, batchEntry{origin: origin, seq: seq, off: off, n: len(inner)})
	if len(s.batchQ) >= s.cfg.BatchSize || len(s.batchQ) >= maxBatchCount {
		s.flushBatch(ctx)
		return
	}
	if !s.batchArmed {
		s.batchArmed = true
		ctx.SetTimer(s.cfg.BatchFlushDelay, tagBatchFlush)
	}
}

// batchFlushTick is the deadline flush: whatever is queued goes out now.
// The timer is not re-armed here — the next enqueue arms a fresh one —
// so an idle node carries no recurring timer.
func (s *Sensor) batchFlushTick(ctx node.Context) {
	s.batchArmed = false
	if s.phase != PhaseOperational || !s.ks.InCluster {
		// Evicted or rebooted with readings still queued: they must not
		// go out under whatever key the node holds next.
		s.dropBatchQueue()
		return
	}
	s.flushBatch(ctx)
}

// flushBatch seals every queued reading into one DATA frame.
func (s *Sensor) flushBatch(ctx node.Context) {
	if len(s.batchQ) == 0 {
		return
	}
	sc := ctx.Scratch()
	sc.TxReadings = sc.TxReadings[:0]
	for _, e := range s.batchQ {
		sc.TxReadings = append(sc.TxReadings, wire.Reading{
			Origin: e.origin,
			Seq:    e.seq,
			Inner:  s.batchBuf[e.off : e.off+e.n],
		})
	}
	s.sealData(ctx, sc.TxReadings)
	s.dropBatchQueue()
}

// sendOne seals a one-reading DATA frame outside the queue: ack-gated
// retries and the base station's hop-0 delivery echo.
func (s *Sensor) sendOne(ctx node.Context, inner []byte, origin node.ID, seq uint32) {
	one := [1]wire.Reading{{Origin: origin, Seq: seq, Inner: inner}}
	s.sealData(ctx, one[:])
}

// sealData performs Step 2 for this hop: wrap the readings' inner
// envelopes with the sender's cluster key, a fresh timestamp and the
// gradient height, and make the single broadcast.
func (s *Sensor) sealData(ctx node.Context, readings []wire.Reading) {
	d := wire.Data{
		Tau:      int64(ctx.Now()),
		SrcCID:   s.ks.CID,
		Hop:      s.hop,
		Readings: readings,
	}
	sc := ctx.Scratch()
	sc.BodyBuf = d.AppendMarshal(sc.BodyBuf[:0])
	ctx.Broadcast(s.sealFrame(ctx, wire.TData, s.ks.CID, s.ks.ClusterKey, sc.BodyBuf))
}

// dropBatchQueue discards queued-but-unflushed readings (eviction from
// the own cluster: the key they would be sealed under is gone).
func (s *Sensor) dropBatchQueue() {
	s.batchQ = s.batchQ[:0]
	s.batchBuf = s.batchBuf[:0]
}

// onData verifies a DATA frame once (one open, one freshness check) and
// then runs the per-reading pipeline — implicit acks, dedup, base-station
// delivery or forwarding — tuple by tuple.
func (s *Sensor) onData(ctx node.Context, f *wire.Frame) {
	if s.phase != PhaseOperational || !s.ks.InCluster {
		return
	}
	body, ok := s.openWithEpochFallback(ctx, f)
	if !ok {
		return // not a neighboring cluster, or forged: drop
	}
	// Decoded in place into the host scratch: the Inner slices alias
	// OpenBuf, which stays untouched for the rest of this handler
	// (everything that outlives the callback — the queue slab,
	// pending-retry copies, arena-backed deliveries, the radio's packet
	// copy — copies out of it).
	d := &ctx.Scratch().RxData
	if err := wire.UnmarshalDataInto(d, body); err != nil {
		return
	}
	// The CID inside the encryption must match the selector outside it.
	if d.SrcCID != f.CID {
		return
	}
	// Freshness: τ is restamped at every hop, so a tight window suffices.
	// The lower bound admits SkewTolerance of apparent future-ness: zero
	// in simulation (shared virtual clock), nonzero across real
	// processes whose clocks started at different instants.
	age := int64(ctx.Now()) - d.Tau
	if age < -int64(s.cfg.SkewTolerance) || age > int64(s.cfg.FreshWindow) {
		return
	}
	// Implicit acknowledgement: overhearing our own pending (origin, seq)
	// relayed by a strictly-lower-hop node — or echoed by the base station
	// at hop 0 — means the message progressed toward the sink. This must
	// run before duplicate suppression, because the sender remembered the
	// pair when it transmitted.
	if len(s.pending) > 0 && d.Hop < s.hop {
		s.ackPending(d.Readings)
	}
	// Gradient rule: forward only if the previous hop was farther from
	// the base station than we are (unless flooding is configured). A
	// selective-forwarding attacker swallows everything.
	forward := s.bs == nil && !s.Malice.DropData &&
		(s.cfg.FloodForwarding || (s.hop != HopUnknown && d.Hop > s.hop))
	for i := range d.Readings {
		rd := &d.Readings[i]
		if !s.dedup.insert(dedupKey{rd.Origin, rd.Seq}, dedupCapacity) {
			continue
		}
		if s.bs != nil {
			s.deliver(ctx, rd.Origin, rd.Seq, rd.Inner)
			continue
		}
		// Data-fusion peek: with Step 1 disabled the reading is visible
		// to every forwarder holding the cluster key; the application
		// may discard redundant reports here.
		if !forward || !s.peekAllows(rd.Origin, rd.Seq, rd.Inner) {
			continue
		}
		s.relayReading(ctx, rd.Inner, rd.Origin, rd.Seq)
	}
}

// --- ack-gated forwarding retries (Config.DataRetries > 0) ---

// pendingSend is one transmitted reading awaiting its implicit ack.
//
// Sensor.pending is a slab of these kept sorted by key, so a lookup is a
// binary search over one contiguous array and the retry tick walks the
// entries in key order without sorting. An entry that leaves (ack,
// give-up) moves to the slab's spare capacity past len with its inner
// buffer, and the next insertion takes that buffer back, so steady-state
// tracking allocates nothing. A node has a handful of readings in
// flight (a mean of 11 and a maximum of 128 on perfbench soak-batch), so
// the shifts of an insertion or removal in the middle cost less than a
// map's hashing and pointer-chasing.
type pendingSend struct {
	key      dedupKey
	attempts int
	nextAt   time.Duration
	inner    []byte
}

// pendingIdx binary-searches s.pending for k, returning the insertion
// point and whether the entry exists.
func (s *Sensor) pendingIdx(k dedupKey) (int, bool) {
	lo, hi := 0, len(s.pending)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.pending[mid].key.u64() < k.u64() {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.pending) && s.pending[lo].key == k
}

// insertPending opens slot i of the slab, shifting the later entries up,
// and returns it empty but for a retired inner buffer to reuse. The
// pointer is valid until the next insertion or removal.
func (s *Sensor) insertPending(i int) *pendingSend {
	n := len(s.pending)
	if n < cap(s.pending) {
		s.pending = s.pending[:n+1]
	} else {
		s.pending = append(s.pending, pendingSend{})
	}
	spare := s.pending[n].inner
	copy(s.pending[i+1:], s.pending[i:n])
	s.pending[i] = pendingSend{inner: spare[:0]}
	return &s.pending[i]
}

// removePending retires entry i: the later entries shift down and its
// inner buffer parks in the slot just past the new end.
func (s *Sensor) removePending(i int) {
	n := len(s.pending) - 1
	spare := s.pending[i].inner
	copy(s.pending[i:], s.pending[i+1:])
	s.pending[n] = pendingSend{inner: spare}
	s.pending = s.pending[:n]
}

// ackPending is the implicit acknowledgement of every pending reading
// among readings: it retires those entries and clears the degraded flag
// if any was found.
func (s *Sensor) ackPending(readings []wire.Reading) {
	for i := range readings {
		if j, ok := s.pendingIdx(dedupKey{readings[i].Origin, readings[i].Seq}); ok {
			s.removePending(j)
			s.degraded = false
		}
	}
}

// retirePending drops every pending reading and forgets the tracked
// retry fire (eviction and handoff): a stale tagDataRetry tick finds
// nothing to retransmit, and the next trackPending after a re-admission
// arms a fresh timer rather than lean on one that may have passed.
func (s *Sensor) retirePending() {
	s.pending = s.pending[:0]
	s.retryTimerAt = 0
}

// trackPending registers a transmission for ack-gated retry. No-op on the
// base station (its deliveries terminate there) and when the feature is
// off — in particular, no random draw happens on the default path.
func (s *Sensor) trackPending(ctx node.Context, inner []byte, origin node.ID, seq uint32) {
	if s.cfg.DataRetries <= 0 || s.bs != nil {
		return
	}
	k := dedupKey{origin, seq}
	i, ok := s.pendingIdx(k)
	if ok {
		return
	}
	d := s.dataBackoff(ctx, 0)
	at := ctx.Now() + d
	if len(s.pending) == 0 || at < s.retryMinAt {
		s.retryMinAt = at
	}
	p := s.insertPending(i)
	p.key, p.nextAt = k, at
	p.inner = append(p.inner, inner...)
	// One armed timer covers the whole queue: arm only when this entry
	// comes due before the earliest outstanding fire (or none is armed).
	// Under sustained traffic most entries are implicitly acked before
	// their deadline, so per-entry timers would mostly fire spuriously —
	// and the event-heap churn of arming them dominates the hot path.
	if s.retryTimerAt == 0 || at < s.retryTimerAt {
		ctx.SetTimer(d, tagDataRetry)
		s.retryTimerAt = at
	}
}

// dataBackoff is dataRetryBase << attempt plus a uniform jitter of up to
// one base.
func (s *Sensor) dataBackoff(ctx node.Context, attempt int) time.Duration {
	base := dataRetryBase
	return base<<attempt + time.Duration(ctx.Rand().Uint64n(uint64(base)))
}

// dataRetryTick retransmits every due pending send, exhausting each
// entry's budget before giving up and raising the degraded flag. Entries
// are handled in key order, so random draws and broadcast order depend
// only on what is pending.
func (s *Sensor) dataRetryTick(ctx node.Context) {
	now := ctx.Now()
	if s.retryTimerAt != 0 && now >= s.retryTimerAt {
		// The tracked earliest fire just happened (or passed); anything
		// still outstanding is a forgotten later timer we'll treat as
		// spurious when it arrives.
		s.retryTimerAt = 0
	}
	if s.phase != PhaseOperational || !s.ks.InCluster || len(s.pending) == 0 {
		return
	}
	// Fast path for spurious fires (the earliest-due entry was acked
	// after its timer was armed): nothing due means no draws, no sends,
	// no scan — but the queue still needs a future wake-up.
	if now < s.retryMinAt {
		s.ensureRetryTimer(ctx, now)
		return
	}
	// One pass in key order: handle each due entry where it stands and
	// track the earliest deadline among the rest. Nothing a retransmission
	// does touches the slab, so the order of the due entries is the key
	// order of the whole due set.
	min := time.Duration(1<<63 - 1)
	for i := 0; i < len(s.pending); {
		p := &s.pending[i]
		if p.nextAt > now {
			if p.nextAt < min {
				min = p.nextAt
			}
			i++
			continue
		}
		if p.attempts >= s.cfg.DataRetries {
			// Budget exhausted with no ack: give up on this reading and
			// flag degraded operation (cleared by the next ack heard).
			s.removePending(i)
			s.degraded = true
			s.om.degraded.Inc()
			s.cfg.Obs.Emit(now, obs.KindDegraded, int(s.id), s.ks.CID, "")
			continue
		}
		p.attempts++
		s.om.dataRetx.Inc()
		s.cfg.Obs.Emit(now, obs.KindRetransmit, int(s.id), s.ks.CID, "data")
		s.sendOne(ctx, p.inner, p.key.origin, p.key.seq)
		p.nextAt = now + s.dataBackoff(ctx, p.attempts)
		if p.nextAt < min {
			min = p.nextAt
		}
		i++
	}
	if len(s.pending) > 0 {
		s.retryMinAt = min
		s.ensureRetryTimer(ctx, now)
	}
}

// ensureRetryTimer arms a tagDataRetry fire at retryMinAt unless the
// tracked outstanding timer already fires at or before it. Called only
// while pending is non-empty, so retryMinAt is meaningful.
func (s *Sensor) ensureRetryTimer(ctx node.Context, now time.Duration) {
	if s.retryTimerAt != 0 && s.retryTimerAt <= s.retryMinAt {
		return
	}
	d := s.retryMinAt - now
	if d < 0 {
		d = 0
	}
	ctx.SetTimer(d, tagDataRetry)
	s.retryTimerAt = s.retryMinAt
}

// openWithEpochFallback opens a cluster-keyed frame with the current key
// for f.CID, falling back to the one-epoch-old key during a refresh
// changeover (messages sealed just before the refresh are still in
// flight).
func (s *Sensor) openWithEpochFallback(ctx node.Context, f *wire.Frame) ([]byte, bool) {
	key, known := s.ks.KeyFor(f.CID)
	if known {
		if body, ok := s.openFrame(ctx, f, key); ok {
			return body, true
		}
	}
	if prev, ok := s.prevKeyOf(f.CID); ok {
		if body, ok := s.openFrame(ctx, f, prev); ok {
			return body, true
		}
	}
	return nil, false
}
