// The scheduler: shards, conservative epochs and the barrier that
// exchanges mailboxes and replays user callbacks.
//
// # Design
//
// The node set is partitioned into S = max(Config.Shards, 1) shards
// (spatial stripes when the caller supplies Config.ShardOf; contiguous
// index ranges otherwise). Each shard owns a private event heap, packet
// arena, event free-list, and fault-injector replica. At S = 1 the one
// shard runs inline on the calling goroutine; at S > 1 each shard
// advances on its own goroutine. Either way the run proceeds in
// conservative synchronous epochs. The epoch width is the lookahead
// L = PropDelay: every radio delivery — the only cross-shard interaction
// — arrives at least L after its transmission, so if M is the globally
// earliest pending event, no event before M+L can be influenced by a
// transmission that has not happened yet. Each epoch therefore processes
// every event with at < limit = min(M+L, next coordinator event,
// until+1ns), then all shards meet at a barrier where the coordinator
// drains the per-shard outboxes into the target heaps and replays
// buffered user callbacks. The epoch limits depend only on the pending
// event set, never on S.
//
// # The shard-count-invariance contract
//
// The engine is byte-identical across every shard count and every shard
// assignment. Three mechanisms make the contract hold:
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
//
// # Trace replay
//
// A transmission keeps one trace record: the packet, copied once, and a
// slot per receiver. The sender fills in each slot's Config.Loss
// verdict; with a fault plan, each receiver adds its fault verdict at
// arrival. A record is replayed once its last arrival lies before the
// barrier, and never ahead of an earlier-keyed record still waiting, so
// the Trace hook sees each broadcast's deliveries together and
// transmission times that never step backwards.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
	out [][]*event

	// cbs buffers death and crash callbacks, txs the trace records of
	// this epoch's transmissions, for canonical-order replay on the
	// coordinator.
	cbs []cbRec
	txs []*txTrace

	// inj is this shard's fault-injector replica (nil without Faults).
	inj *faults.Injector

	// processed counts events dispatched in the current epoch; the
	// coordinator harvests and resets it at the barrier.
	processed int

	free   evPool
	freeTx []*txTrace
	pkts   pktArena
}

// cbKind discriminates buffered death and crash callbacks. The kind is
// part of the canonical replay key, so at equal times deaths replay
// before crashes.
type cbKind uint8

const (
	cbDeath cbKind = iota
	cbCrash
)

// cbRec is one buffered death or crash callback, replayed in
// (at, kind, node) order.
type cbRec struct {
	kind cbKind
	at   time.Duration
	node int32
}

func cmpCallback(a, b cbRec) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.kind, b.kind); c != 0 {
		return c
	}
	return cmp.Compare(a.node, b.node)
}

// txTrace is the trace record of one transmission, keyed like an event
// on the sender's lane. With a fault plan every receiver gets a delivery,
// numbered seq+1, seq+2, ... in neighbor order, so a delivery finds its
// slot from its own lane sequence.
type txTrace struct {
	at   time.Duration // transmission time
	last time.Duration // latest arrival whose fault verdict lands in lost
	src  int32
	seq  uint64
	from node.ID
	pkt  []byte
	to   []int32 // the receivers, in neighbor order
	lost []bool
	// owner is the shard whose pool the record returns to.
	owner *shard
}

func cmpTrace(a, b *txTrace) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

func newShard(e *Engine, id int) *shard {
	s := &shard{eng: e, id: id, out: make([][]*event, len(e.shards))}
	s.free.disabled = e.cfg.DisablePooling
	s.pkts.disabled = e.cfg.DisablePooling
	s.pkts.poison = e.cfg.PoisonRecycled
	if e.cfg.Faults != nil {
		// Every replica splits the same faultStream label off the same
		// root, so replicas are interchangeable: whichever shard
		// evaluates a chain draws the same variates. The metrics
		// registry get-or-creates by name, so all replicas share one set
		// of counters.
		s.inj = faults.NewInjector(e.cfg.Faults, e.root.Split(faultStream))
		s.inj.SetMetrics(faults.NewMetrics(e.cfg.Obs.Registry()))
		s.inj.SetLocator(locatorFor(e.cfg.Graph))
	}
	return s
}

// mediumStream returns the host's private medium stream, splitting it
// off the root on first use.
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
		s.now = max(s.now, e.now)
	}
}

// pushHostEvent schedules an event on h's lane: the key is
// (at, h.idx, next lane sequence). The caller may fill kind-specific
// operands on the returned event (the heap orders only by the key).
func (s *shard) pushHostEvent(at time.Duration, h *host, kind eventKind) *event {
	h.lseq++
	ev := s.free.get()
	ev.at = at
	ev.src = int32(h.idx)
	ev.seq = h.lseq
	ev.kind = kind
	ev.h = h
	s.queue.push(ev)
	return ev
}

// runEpoch processes every pending event strictly before limit. It runs
// on the shard's goroutine, or inline when S == 1.
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
	case evArrive:
		s.runArrive(ev)
	case evRxEnd:
		s.runRxEnd(ev.h, ev.from, ev.pkt, ev.rx)
	case evTimer:
		ev.h.runTimer(ev.tid)
	case evCrash:
		s.crash(ev.h)
	case evReboot:
		s.reboot(ev.h)
	}
	s.free.put(ev)
}

// deliverFrom fans a transmission from h's radio position out to every
// neighbor. Each receiver gets a private arena copy, so neither the
// sender's later reuse of its buffer nor another receiver's in-place
// mutation can corrupt a delivery — the same isolation a real radio
// provides; the copy returns to the arena when Receive returns.
//
// The sender's private medium stream supplies exactly two variates
// (loss, jitter) per receiver in neighbor order, lost or not, so loss
// outcomes never shift later draws. In-shard receivers get heap events
// directly, out-of-shard receivers get outbox entries. A packet lost to
// Config.Loss still ships when a fault plan is set, because fault chains
// advance on every arrival.
func (s *shard) deliverFrom(h *host, from node.ID, pkt []byte) {
	e := s.eng
	txAt := s.now
	med := h.mediumStream()
	jit := e.cfg.Jitter
	if s.inj != nil && jit > 0 {
		jit = time.Duration(float64(jit) * s.inj.JitterScale(txAt))
	}
	nbs := e.cfg.Graph.Neighbors(h.idx)
	var tr *txTrace
	if e.cfg.Trace != nil {
		tr = s.newTrace(h, from, pkt, nbs)
	}
	for k, nb := range nbs {
		lost := e.cfg.Loss > 0 && med.Bool(e.cfg.Loss)
		delay := e.cfg.PropDelay
		if jit > 0 {
			delay += time.Duration(med.Uint64n(uint64(jit)))
		}
		if lost {
			if tr != nil {
				tr.lost[k] = true
			}
			if s.inj == nil {
				e.m.lost.Inc()
				continue
			}
		}
		copied := s.pkts.get(len(pkt))
		copy(copied, pkt)
		h.lseq++
		ev := s.free.get()
		ev.at = txAt + delay
		ev.src = int32(h.idx)
		ev.seq = h.lseq
		ev.kind = evArrive
		rcv := e.hosts[nb]
		ev.h = rcv
		ev.from = from
		ev.pkt = copied
		ev.txAt = txAt
		ev.lossLost = lost
		if tr != nil && s.inj != nil {
			ev.tr = tr
			tr.last = max(tr.last, ev.at)
		}
		if dst := rcv.sh; dst != s {
			s.out[dst.id] = append(s.out[dst.id], ev)
			continue
		}
		s.queue.push(ev)
	}
}

// newTrace starts the trace record of a transmission from h's lane to
// the receivers nbs.
func (s *shard) newTrace(h *host, from node.ID, pkt []byte, nbs []int32) *txTrace {
	var tr *txTrace
	if last := len(s.freeTx) - 1; last >= 0 {
		tr = s.freeTx[last]
		s.freeTx[last] = nil
		s.freeTx = s.freeTx[:last]
	} else {
		tr = &txTrace{owner: s}
	}
	h.lseq++
	tr.at, tr.last, tr.src, tr.seq, tr.from = s.now, s.now, int32(h.idx), h.lseq, from
	tr.pkt = append(tr.pkt[:0], pkt...)
	tr.to = append(tr.to[:0], nbs...)
	tr.lost = append(tr.lost[:0], make([]bool, len(nbs))...)
	s.txs = append(s.txs, tr)
	return tr
}

// recycleTrace returns a replayed record to its pool.
func (s *shard) recycleTrace(tr *txTrace) {
	if s.eng.cfg.DisablePooling {
		return
	}
	if s.pkts.poison {
		poison(tr.pkt)
	}
	s.freeTx = append(s.freeTx, tr)
}

// runArrive completes one delivery on the receiver's shard: the
// fault-plan verdict is decided here, in canonical arrival order, then
// the packet is dropped, handed to the collision model, or delivered.
// Losses come first, so a lost packet never occupies the receiver's
// radio and can never collide with another reception
// (TestLossBeforeCollision*).
func (s *shard) runArrive(ev *event) {
	e := s.eng
	rcv := ev.h
	lost := ev.lossLost
	if s.inj != nil && s.inj.Drop(ev.txAt, int(ev.src), rcv.idx) {
		lost = true
		if tr := ev.tr; tr != nil {
			tr.lost[ev.seq-tr.seq-1] = true
		}
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
	s.receive(rcv, ev.from, ev.pkt)
}

// rxBegin implements the half-duplex collision model: the packet
// occupies rcv's radio from arrival until arrival+airtime; if it overlaps
// another reception, both are corrupted and neither is delivered.
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
			rcv.rxCurrent = rx // radio stays jammed until the longer one ends
		}
		return
	}
	rcv.rxCurrent = rx
}

// runRxEnd delivers a collidable reception that survived its airtime.
// Receive energy is charged only for packets that decode — corrupted
// receptions are dropped before the full-packet receive cost.
func (s *shard) runRxEnd(rcv *host, from node.ID, pkt []byte, rx *reception) {
	if rx.corrupt {
		s.pkts.put(pkt)
		return
	}
	s.receive(rcv, from, pkt)
}

// receive hands an intact packet to a live receiver and reclaims the
// buffer once the callback is done with it.
func (s *shard) receive(rcv *host, from node.ID, pkt []byte) {
	e := s.eng
	if rcv.alive {
		e.m.rx.Inc()
		rcv.meter.ChargeRx(e.cfg.Energy, len(pkt))
		rcv.behavior.Receive(rcv, from, pkt)
		e.checkBattery(rcv)
	}
	s.pkts.put(pkt)
}

// crash is the fault model's node failure on the owning shard; the
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
		s.cbs = append(s.cbs, cbRec{kind: cbCrash, at: s.now, node: int32(h.idx)})
	}
}

// reboot revives a crashed node on the owning shard; the restart
// callback runs with the shard clock at the reboot time.
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

// run is the coordinator loop: compute the epoch limit from the
// globally earliest pending event plus the lookahead, run every shard up
// to it, then exchange mailboxes and replay callbacks at the barrier.
// Coordinator events (Schedule/Do closures) run between epochs, before
// shard events at equal times.
func (e *Engine) run(until time.Duration, drainAll bool, maxEvents int) (int, error) {
	var w *workers
	if len(e.shards) > 1 {
		w = startWorkers(e.shards)
		defer w.stop()
	}
	total := 0
	for {
		gt := maxTime // earliest coordinator event
		if len(e.queue) > 0 {
			gt = e.queue[0].at
		}
		st := maxTime // earliest shard event
		for _, s := range e.shards {
			if len(s.queue) > 0 {
				st = min(st, s.queue[0].at)
			}
		}
		m := min(gt, st)
		if m == maxTime || (!drainAll && m > until) {
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
				ev.fn()
				e.free.put(ev)
				total++
				e.m.events.Inc()
			}
			e.barrier(gt)
		} else {
			// PropDelay is the lookahead: no delivery arrives sooner.
			limit := min(st+e.cfg.PropDelay, gt)
			if !drainAll {
				if hi := until + 1; hi > 0 {
					limit = min(limit, hi)
				}
			}
			if w != nil {
				w.epoch(limit, e.m.stall)
			} else {
				e.shards[0].runEpoch(limit)
			}
			epochEvents, busiest := 0, 0
			for _, s := range e.shards {
				busiest = max(busiest, s.processed)
				epochEvents += s.processed
				s.processed = 0
				e.now = max(e.now, s.now)
			}
			total += epochEvents
			e.m.events.Add(uint64(epochEvents))
			e.m.epochs.Inc()
			if busiest > 0 {
				e.m.util.Observe(float64(epochEvents) / float64(len(e.shards)*busiest))
			}
			e.barrier(limit)
		}
		if maxEvents > 0 && total > maxEvents {
			return total, fmt.Errorf("sim: exceeded %d events; protocol not quiescing", maxEvents)
		}
	}
	if !drainAll && e.now < until {
		e.now = until
	}
	return total, nil
}

// workers runs each shard's epochs on a goroutine of its own, for the
// length of one run.
type workers struct {
	starts []chan time.Duration
	done   chan struct{}
}

func startWorkers(shards []*shard) *workers {
	w := &workers{
		starts: make([]chan time.Duration, len(shards)),
		done:   make(chan struct{}, len(shards)),
	}
	for k, s := range shards {
		start := make(chan time.Duration)
		w.starts[k] = start
		go func() {
			for limit := range start {
				s.runEpoch(limit)
				w.done <- struct{}{}
			}
		}()
	}
	return w
}

// epoch runs every shard up to limit and waits for all of them. stall,
// if non-nil, observes the wall-clock spread between the first and the
// last shard finishing.
func (w *workers) epoch(limit time.Duration, stall *obs.Histogram) {
	for _, c := range w.starts {
		c <- limit
	}
	<-w.done
	var first time.Time
	if stall != nil {
		first = time.Now()
	}
	for i := 1; i < len(w.starts); i++ {
		<-w.done
	}
	if stall != nil {
		stall.Observe(time.Since(first).Seconds())
	}
}

func (w *workers) stop() {
	for _, c := range w.starts {
		close(c)
	}
}

// barrier runs on the coordinator with every shard parked and every
// event before frontier done: it drains the outboxes into the target
// heaps, then replays buffered callbacks. Heap order depends only on the
// canonical keys, so the drain order does not matter.
func (e *Engine) barrier(frontier time.Duration) {
	for _, src := range e.shards {
		for t, evs := range src.out {
			if len(evs) == 0 {
				continue
			}
			dst := e.shards[t]
			for i, ev := range evs {
				dst.queue.push(ev)
				evs[i] = nil
			}
			e.m.xmsgs.Add(uint64(len(evs)))
			src.out[t] = evs[:0]
		}
	}
	e.flushCallbacks(frontier)
}

// flushCallbacks replays buffered user callbacks on the coordinator.
// Deaths and crashes replay in (at, kind, node) order. A trace record is
// ready once its last arrival precedes frontier; ready records replay in
// (at, src, seq) order up to the first one still waiting, which holds
// back every later record. Every future transmission happens at or
// after frontier, later than any record replayed here, so the Trace
// stream never steps back in time. At equal times a transmission's
// deliveries replay before deaths and crashes.
func (e *Engine) flushCallbacks(frontier time.Duration) {
	cbs := e.cbScratch[:0]
	added := false
	for _, s := range e.shards {
		cbs = append(cbs, s.cbs...)
		s.cbs = s.cbs[:0]
		if len(s.txs) > 0 {
			e.traces = append(e.traces, s.txs...)
			clear(s.txs)
			s.txs = s.txs[:0]
			added = true
		}
	}
	if len(cbs) == 0 && len(e.traces) == 0 {
		return
	}
	slices.SortFunc(cbs, cmpCallback)
	if added {
		slices.SortFunc(e.traces, cmpTrace)
	}
	ready := 0
	for ready < len(e.traces) && e.traces[ready].last < frontier {
		ready++
	}
	i := 0
	for _, r := range cbs {
		for ; i < ready && e.traces[i].at <= r.at; i++ {
			e.replayTrace(e.traces[i])
		}
		if r.kind == cbDeath {
			e.cfg.OnDeath(int(r.node), r.at)
		} else {
			e.cfg.OnCrash(int(r.node), r.at)
		}
	}
	for ; i < ready; i++ {
		e.replayTrace(e.traces[i])
	}
	e.cbScratch = cbs[:0]
	for _, tr := range e.traces[:ready] {
		tr.owner.recycleTrace(tr)
	}
	n := copy(e.traces, e.traces[ready:])
	clear(e.traces[n:])
	e.traces = e.traces[:n]
}

// replayTrace reports one transmission's deliveries to the Trace hook.
func (e *Engine) replayTrace(tr *txTrace) {
	for k, to := range tr.to {
		e.cfg.Trace(TraceEvent{At: tr.at, From: tr.from, To: node.ID(to), Size: len(tr.pkt), Lost: tr.lost[k], Pkt: tr.pkt})
	}
}
