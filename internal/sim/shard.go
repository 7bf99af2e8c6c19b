// Shard-mode scheduler: the intra-trial parallel engine selected by
// Config.Shards >= 1.
//
// # Design
//
// The node set is partitioned into S shards (spatial stripes when the
// caller supplies Config.ShardOf; contiguous index ranges otherwise).
// Each shard owns a private event heap, packet arena, event free-list,
// and fault-injector replica, and advances on its own goroutine in
// conservative synchronous epochs. The epoch width is the lookahead
// L = PropDelay: every radio delivery — the only cross-shard
// interaction — arrives at least L after its transmission, so if M is
// the globally earliest pending event, no event before M+L can be
// influenced by a transmission that has not happened yet. Each epoch
// therefore processes every event with at < limit = min(M+L, next
// coordinator event, until+1ns), then all shards meet at a barrier
// where the coordinator drains the per-shard outboxes into the target
// heaps and replays buffered user callbacks.
//
// # The shard-count-invariance contract
//
// Shard mode is byte-identical across every shard count S >= 1 and
// every shard assignment, but intentionally NOT to the legacy Shards=0
// engine, whose global insertion-sequence tie-break and single shared
// medium stream are inherently serial (see docs/DETERMINISM.md). Three
// mechanisms make the contract hold:
//
//  1. Canonical event order. Every shard event carries the key
//     (at, src, seq) where src is the graph index of the host whose
//     lane produced it and seq is that host's private lane counter
//     (host.lseq). Lane counters are only ever advanced by the owning
//     goroutine, so keys are a pure function of protocol execution, not
//     of scheduling. Coordinator (Schedule/Do) events form a separate
//     lane that runs before shard events at equal times.
//  2. Per-sender medium streams. Sender i draws its loss and jitter
//     variates from Split(mediumLaneBase+i) — exactly two draws per
//     (transmission, receiver) in neighbor order — so radio randomness
//     never depends on how transmissions interleave globally.
//  3. Receiver-side fault evaluation. Fault-plan drops are decided on
//     the receiver's shard at arrival, in canonical arrival order,
//     against a per-shard injector replica; replicas share the same
//     split-derived streams, so any shard evaluates any chain
//     identically. User callbacks (Trace, OnDeath, OnCrash) are
//     buffered per shard and replayed on the coordinator in canonical
//     order at each barrier.
package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/xrand"
)

const maxTime = time.Duration(math.MaxInt64)

// shard owns one partition of the node set: its event heap, clock, and
// recycling pools. Fields are only touched by the shard's goroutine
// during an epoch, or by the coordinator while all shards sit at a
// barrier — never both at once.
type shard struct {
	eng   *Engine
	id    int
	now   time.Duration
	queue eventQueue

	// out[k] buffers deliveries addressed to shard k; the coordinator
	// drains every outbox into the target heaps at the epoch barrier.
	out []xoutbox

	// cbs buffers user-callback records (trace, death, crash) for
	// canonical-order replay on the coordinator.
	cbs []cbRec

	// inj is this shard's fault-injector replica (nil without Faults).
	inj *faults.Injector

	// processed counts events dispatched in the current epoch; the
	// coordinator harvests and resets it at the barrier.
	processed int

	freeEv []*event
	pkts   pktArena
}

type xoutbox []xmsg

// xmsg is one cross-shard delivery in flight: everything the receiving
// shard needs to reconstruct the evSDeliver event with its canonical
// (at, src, seq) key.
type xmsg struct {
	at       time.Duration // arrival time
	txAt     time.Duration // transmission time (trace + fault windows)
	src      int32         // sender lane
	seq      uint64        // sender lane sequence
	from     node.ID       // claimed link-layer sender
	to       int32         // receiver graph index
	pkt      []byte        // receiver's private payload copy
	lossLost bool          // sender-side Config.Loss verdict
}

// cbKind discriminates buffered user-callback records. The kind is part
// of the canonical replay key, so at equal times traces replay before
// deaths before crashes.
type cbKind uint8

const (
	cbTrace cbKind = iota
	cbDeath
	cbCrash
)

// cbRec is one buffered user callback. The replay key is
// (at, kind, src, seq, node); for traces (src, seq) is the delivery's
// canonical key, for deaths and crashes node disambiguates.
type cbRec struct {
	kind cbKind
	at   time.Duration
	src  int32
	seq  uint64
	node int32
	tr   TraceEvent
}

// setupShards switches the engine into shard mode. Called by New after
// hosts are built, with the root RNG that seeds all streams.
func (e *Engine) setupShards(root *xrand.RNG) error {
	s := e.cfg.Shards
	n := len(e.hosts)
	if e.cfg.ShardOf != nil && len(e.cfg.ShardOf) != n {
		return fmt.Errorf("sim: ShardOf has %d entries for %d nodes", len(e.cfg.ShardOf), n)
	}
	e.sharded = true
	e.root = root
	e.lookahead = e.cfg.PropDelay
	e.shards = make([]*shard, s)
	for k := range e.shards {
		sh := &shard{eng: e, id: k, out: make([]xoutbox, s)}
		sh.pkts.disabled = e.cfg.DisablePooling
		sh.pkts.poison = e.cfg.PoisonRecycled
		if e.cfg.Faults != nil {
			// Every replica splits the same faultStream label off the
			// same root, so replicas are interchangeable: whichever
			// shard evaluates a chain draws the same variates. The
			// metrics registry get-or-creates by name, so all replicas
			// share one set of counters.
			sh.inj = faults.NewInjector(e.cfg.Faults, root.Split(faultStream))
			sh.inj.SetMetrics(faults.NewMetrics(e.cfg.Obs.Registry()))
			sh.inj.SetLocator(locatorFor(e.cfg.Graph))
		}
		e.shards[k] = sh
	}
	e.shardOf = make([]int32, n)
	for i, h := range e.hosts {
		k := i * s / n
		if e.cfg.ShardOf != nil {
			k = e.cfg.ShardOf[i]
			if k < 0 || k >= s {
				return fmt.Errorf("sim: ShardOf[%d] = %d out of range [0,%d)", i, k, s)
			}
		}
		e.shardOf[i] = int32(k)
		h.sh = e.shards[k]
	}
	return nil
}

// mediumStream returns the host's private medium stream, splitting it
// off the root on first use. Only used in shard mode.
func (h *host) mediumStream() *xrand.RNG {
	if h.med == nil {
		h.med = h.eng.root.Split(mediumLaneBase + uint64(h.idx))
	}
	return h.med
}

// syncShardClocks advances every shard clock to coordinator time so
// that behavior callbacks invoked from coordinator context (Do
// closures, Reboot restarts, injections) observe the right Now().
// Clocks only ever move forward: every pending shard event is at or
// after coordinator time whenever the coordinator runs.
func (e *Engine) syncShardClocks() {
	for _, s := range e.shards {
		if s.now < e.now {
			s.now = e.now
		}
	}
}

// newEvent takes an event record from the shard's free-list. Unlike the
// legacy engine the canonical key is assigned by the caller, not a
// global sequence.
func (s *shard) newEvent() *event {
	if last := len(s.freeEv) - 1; last >= 0 {
		ev := s.freeEv[last]
		s.freeEv[last] = nil
		s.freeEv = s.freeEv[:last]
		return ev
	}
	return &event{}
}

func (s *shard) recycle(ev *event) {
	if s.eng.cfg.DisablePooling {
		return
	}
	*ev = event{}
	s.freeEv = append(s.freeEv, ev)
}

// pushHostEvent schedules an event on h's lane: the key is
// (at, h.idx, next lane sequence). The caller may fill kind-specific
// operands on the returned event (the heap orders only by the key).
func (s *shard) pushHostEvent(at time.Duration, h *host, kind eventKind) *event {
	h.lseq++
	ev := s.newEvent()
	ev.at = at
	ev.src = int32(h.idx)
	ev.seq = h.lseq
	ev.kind = kind
	ev.h = h
	s.queue.push(ev)
	return ev
}

func (s *shard) bufferCallback(r cbRec) { s.cbs = append(s.cbs, r) }

// runEpoch processes every pending event strictly before limit. It runs
// on the shard's goroutine (or inline when S == 1 or during coordinator
// injections).
func (s *shard) runEpoch(limit time.Duration) {
	n := 0
	for len(s.queue) > 0 && s.queue[0].at < limit {
		ev := s.queue.pop()
		s.now = ev.at
		s.dispatch(ev)
		n++
	}
	s.processed += n
}

func (s *shard) dispatch(ev *event) {
	switch ev.kind {
	case evStart:
		if ev.h.alive {
			ev.h.behavior.Start(ev.h)
		}
	case evSDeliver:
		s.runSDeliver(ev)
	case evRxEnd:
		s.runRxEnd(ev.h, ev.from, ev.pkt, ev.rx)
	case evTimer:
		s.eng.runTimer(ev.h, ev.tid)
	case evSCrash:
		s.crash(ev.h)
	case evSReboot:
		s.reboot(ev.h)
	}
	s.recycle(ev)
}

// deliverFrom fans a transmission from h's radio position out to every
// neighbor: the shard-mode counterpart of Engine.deliverFrom. The
// sender's private medium stream supplies exactly two variates (loss,
// jitter) per receiver in neighbor order; in-shard receivers get heap
// events directly, out-of-shard receivers get outbox records. Lost
// packets still ship whenever a trace hook or fault plan needs to
// observe the arrival (fault chains advance on every arrival, exactly
// as the legacy engine consults the injector before the loss draw).
func (s *shard) deliverFrom(h *host, from node.ID, pkt []byte) {
	e := s.eng
	txAt := s.now
	med := h.mediumStream()
	keepLost := e.cfg.Trace != nil || s.inj != nil
	for _, nb := range e.cfg.Graph.Neighbors(h.idx) {
		lost := e.cfg.Loss > 0 && med.Bool(e.cfg.Loss)
		delay := e.cfg.PropDelay
		if jit := s.scaledJitter(txAt); jit > 0 {
			delay += time.Duration(med.Uint64n(uint64(jit)))
		}
		if lost && !keepLost {
			e.m.lost.Inc()
			continue
		}
		copied := s.pkts.get(len(pkt))
		copy(copied, pkt)
		h.lseq++
		rcv := e.hosts[nb]
		if dst := rcv.sh; dst != s {
			s.out[dst.id] = append(s.out[dst.id], xmsg{
				at:       txAt + delay,
				txAt:     txAt,
				src:      int32(h.idx),
				seq:      h.lseq,
				from:     from,
				to:       nb,
				pkt:      copied,
				lossLost: lost,
			})
			continue
		}
		ev := s.newEvent()
		ev.at = txAt + delay
		ev.src = int32(h.idx)
		ev.seq = h.lseq
		ev.kind = evSDeliver
		ev.h = rcv
		ev.from = from
		ev.pkt = copied
		ev.txAt = txAt
		ev.lossLost = lost
		s.queue.push(ev)
	}
}

// scaledJitter mirrors Engine.scaledJitter against the shard's injector
// replica. JitterScale is a pure function of the plan and the
// transmission time, so replicas agree.
func (s *shard) scaledJitter(at time.Duration) time.Duration {
	jit := s.eng.cfg.Jitter
	if s.inj != nil && jit > 0 {
		jit = time.Duration(float64(jit) * s.inj.JitterScale(at))
	}
	return jit
}

// runSDeliver completes one delivery on the receiver's shard: the
// fault-plan verdict is decided here, in canonical arrival order, then
// the packet is traced, dropped, handed to the collision model, or
// delivered.
func (s *shard) runSDeliver(ev *event) {
	e := s.eng
	rcv := ev.h
	lost := ev.lossLost
	if s.inj != nil && s.inj.Drop(ev.txAt, int(ev.src), rcv.idx) {
		lost = true
	}
	if e.cfg.Trace != nil {
		s.bufferCallback(cbRec{
			kind: cbTrace,
			at:   ev.txAt,
			src:  ev.src,
			seq:  ev.seq,
			tr: TraceEvent{
				At:   ev.txAt,
				From: ev.from,
				To:   rcv.id,
				Size: len(ev.pkt),
				Lost: lost,
				Pkt:  append([]byte(nil), ev.pkt...),
			},
		})
	}
	if lost {
		e.m.lost.Inc()
		s.pkts.put(ev.pkt)
		return
	}
	if e.cfg.Collisions {
		// The reception starts now (the event's time already includes
		// the propagation delay); only the end of airtime needs a
		// future event, keyed on the receiver's lane.
		airtime := e.cfg.AirtimePerByte * time.Duration(len(ev.pkt))
		if airtime <= 0 {
			airtime = time.Microsecond
		}
		rx := &reception{endsAt: s.now + airtime}
		s.rxBegin(rcv, rx)
		end := s.pushHostEvent(s.now+airtime, rcv, evRxEnd)
		end.from = ev.from
		end.pkt = ev.pkt
		end.rx = rx
		return
	}
	if rcv.alive {
		e.m.rx.Inc()
		rcv.meter.ChargeRx(e.cfg.Energy, len(ev.pkt))
		rcv.behavior.Receive(rcv, ev.from, ev.pkt)
		e.checkBattery(rcv)
	}
	s.pkts.put(ev.pkt)
}

// rxBegin mirrors Engine.runRxBegin on the shard clock.
func (s *shard) rxBegin(rcv *host, rx *reception) {
	if !rcv.alive {
		return
	}
	if cur := rcv.rxCurrent; cur != nil && s.now < cur.endsAt {
		if !cur.corrupt {
			cur.corrupt = true
			rcv.collisions++
			s.eng.m.collisions.Inc()
		}
		rx.corrupt = true
		rcv.collisions++
		s.eng.m.collisions.Inc()
		if rx.endsAt > cur.endsAt {
			rcv.rxCurrent = rx
		}
		return
	}
	rcv.rxCurrent = rx
}

// runRxEnd mirrors Engine.runRxEnd against the shard's arena.
func (s *shard) runRxEnd(rcv *host, from node.ID, pkt []byte, rx *reception) {
	e := s.eng
	if rcv.alive && !rx.corrupt {
		e.m.rx.Inc()
		rcv.meter.ChargeRx(e.cfg.Energy, len(pkt))
		rcv.behavior.Receive(rcv, from, pkt)
		e.checkBattery(rcv)
	}
	s.pkts.put(pkt)
}

// crash is the fault plan's node failure on the owning shard; the
// OnCrash callback is buffered for canonical replay.
func (s *shard) crash(h *host) {
	e := s.eng
	if !h.alive {
		return
	}
	h.alive = false
	h.timers = h.timers[:0]
	h.rxCurrent = nil
	e.m.crashes.Inc()
	e.cfg.Obs.Emit(s.now, obs.KindCrash, h.idx, 0, "")
	if e.cfg.OnCrash != nil {
		s.bufferCallback(cbRec{kind: cbCrash, at: s.now, node: int32(h.idx)})
	}
}

// reboot revives a crashed node on the owning shard, mirroring
// Engine.Reboot; the restart callback runs in shard context with the
// shard clock already at the event time.
func (s *shard) reboot(h *host) {
	e := s.eng
	if h.alive || h.behavior == nil || !h.started {
		return
	}
	h.alive = true
	e.m.reboots.Inc()
	e.cfg.Obs.Emit(s.now, obs.KindReboot, h.idx, 0, "")
	if rb, ok := h.behavior.(node.Rebooter); ok {
		rb.Reboot(h)
		return
	}
	h.behavior.Start(h)
}

// runSharded is the coordinator loop: compute the epoch limit from the
// globally earliest pending event plus the lookahead, run every shard
// up to it (concurrently for S > 1), then exchange mailboxes and replay
// callbacks at the barrier. Coordinator events (Schedule/Do closures)
// run between epochs, before shard events at equal times.
func (e *Engine) runSharded(until time.Duration, drainAll bool, maxEvents int) (int, error) {
	nShards := len(e.shards)
	var starts []chan time.Duration
	var done chan struct{}
	if nShards > 1 {
		starts = make([]chan time.Duration, nShards)
		done = make(chan struct{}, nShards)
		for k := range e.shards {
			starts[k] = make(chan time.Duration)
			go func(s *shard, start <-chan time.Duration) {
				for limit := range start {
					s.runEpoch(limit)
					done <- struct{}{}
				}
			}(e.shards[k], starts[k])
		}
		defer func() {
			for _, c := range starts {
				close(c)
			}
		}()
	}
	total := 0
	for {
		gt := maxTime // earliest coordinator event
		if len(e.queue) > 0 {
			gt = e.queue[0].at
		}
		st := maxTime // earliest shard event
		for _, s := range e.shards {
			if len(s.queue) > 0 && s.queue[0].at < st {
				st = s.queue[0].at
			}
		}
		m := gt
		if st < m {
			m = st
		}
		if m == maxTime {
			break // idle
		}
		if !drainAll && m > until {
			break
		}
		if gt <= st {
			// Coordinator lane first at equal times. Its closures may
			// touch any host (injections, boots, crashes), which is safe
			// because every shard is parked at the barrier.
			e.now = gt
			e.syncShardClocks()
			for len(e.queue) > 0 && e.queue[0].at == gt {
				ev := e.queue.pop()
				e.dispatch(ev)
				total++
				e.m.events.Inc()
			}
			e.exchange()
			e.flushCallbacks()
			if maxEvents > 0 && total > maxEvents {
				return total, fmt.Errorf("sim: exceeded %d events; protocol not quiescing", maxEvents)
			}
			continue
		}
		limit := st + e.lookahead
		if gt < limit {
			limit = gt
		}
		if !drainAll {
			if hi := until + 1; hi > 0 && limit > hi {
				limit = hi
			}
		}
		if nShards > 1 {
			for _, c := range starts {
				c <- limit
			}
			if e.m.stall != nil {
				<-done
				firstDone := time.Now()
				for i := 1; i < nShards; i++ {
					<-done
				}
				e.m.stall.Observe(time.Since(firstDone).Seconds())
			} else {
				for i := 0; i < nShards; i++ {
					<-done
				}
			}
		} else {
			e.shards[0].runEpoch(limit)
		}
		epochEvents, busiest := 0, 0
		for _, s := range e.shards {
			if s.processed > busiest {
				busiest = s.processed
			}
			epochEvents += s.processed
			s.processed = 0
			if s.now > e.now {
				e.now = s.now
			}
		}
		total += epochEvents
		e.m.events.Add(uint64(epochEvents))
		e.m.epochs.Inc()
		if busiest > 0 {
			e.m.util.Observe(float64(epochEvents) / float64(nShards*busiest))
		}
		e.exchange()
		e.flushCallbacks()
		if maxEvents > 0 && total > maxEvents {
			return total, fmt.Errorf("sim: exceeded %d events; protocol not quiescing", maxEvents)
		}
	}
	if !drainAll && e.now < until {
		e.now = until
	}
	return total, nil
}

// exchange drains every shard's outboxes into the target shards' heaps.
// It runs on the coordinator with all shards at the barrier, so pushing
// into a foreign heap (and taking records from the foreign free-list)
// is safe. Heap order depends only on the canonical keys the messages
// carry, so the drain order does not matter.
func (e *Engine) exchange() {
	for _, src := range e.shards {
		for t := range src.out {
			msgs := src.out[t]
			if len(msgs) == 0 {
				continue
			}
			dst := e.shards[t]
			for i := range msgs {
				m := &msgs[i]
				ev := dst.newEvent()
				ev.at = m.at
				ev.src = m.src
				ev.seq = m.seq
				ev.kind = evSDeliver
				ev.h = e.hosts[m.to]
				ev.from = m.from
				ev.pkt = m.pkt
				ev.txAt = m.txAt
				ev.lossLost = m.lossLost
				dst.queue.push(ev)
				msgs[i] = xmsg{}
			}
			e.m.xmsgs.Add(uint64(len(msgs)))
			src.out[t] = msgs[:0]
		}
	}
}

// flushCallbacks replays buffered user callbacks on the coordinator in
// canonical (at, kind, src, seq, node) order. Keys are unique — traces
// carry the delivery key, deaths and crashes the node index — so the
// replay order is a pure function of the run.
func (e *Engine) flushCallbacks() {
	total := 0
	for _, s := range e.shards {
		total += len(s.cbs)
	}
	if total == 0 {
		return
	}
	buf := e.cbScratch[:0]
	for _, s := range e.shards {
		buf = append(buf, s.cbs...)
		s.cbs = s.cbs[:0]
	}
	sort.Slice(buf, func(i, j int) bool {
		a, b := &buf[i], &buf[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.src != b.src {
			return a.src < b.src
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.node < b.node
	})
	for i := range buf {
		r := &buf[i]
		switch r.kind {
		case cbTrace:
			e.cfg.Trace(r.tr)
		case cbDeath:
			e.cfg.OnDeath(int(r.node), r.at)
		case cbCrash:
			e.cfg.OnCrash(int(r.node), r.at)
		}
	}
	for i := range buf {
		buf[i] = cbRec{} // release packet references
	}
	e.cbScratch = buf[:0]
}
