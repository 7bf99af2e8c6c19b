// The scheduler: shards, conservative epochs and the barrier that
// exchanges mailboxes and replays user callbacks.
//
// # Design
//
// The node set is partitioned into S = max(Config.Shards, 1) shards
// (spatial stripes when the caller supplies Config.ShardOf; contiguous
// index ranges otherwise). Each shard owns two heaps — host-lane events
// (starts, timers, crashes, reboots, ends of airtime) and transmission
// records — plus a packet arena, event free-list, record slab, and
// fault-injector replica. At S = 1 the one shard runs inline on the
// calling goroutine. At S > 1 the coordinator runs the first shard with
// work due in an epoch inline and offers every other such shard to S-1
// worker goroutines, running any offer no worker has taken by the time
// it is done; a shard with nothing due before the epoch limit is not
// woken. Either way the run proceeds in conservative synchronous
// epochs. The epoch width is the lookahead
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
// # Transmission records
//
// A transmission does not queue one event per receiver. deliver draws
// every receiver's loss and jitter variates, then writes one record per
// receiving shard: the sender lane, the transmission time, one copy of
// the packet, and that shard's receivers sorted by (at, seq), each with
// its lane sequence and Config.Loss verdict. The sender's own shard
// pushes its record on its record heap, keyed by the first arrival;
// records for other shards go to the outboxes and are pushed at the
// barrier. The shard loop dispatches whichever heap's key is smaller.
// Dispatching an arrival advances its record and re-keys it to the next
// arrival (or frees it after the last) before any callback runs, then
// hands the receiver a private arena copy of the packet. Each arrival
// keeps the key it would have as an event of its own, so the dispatch
// order is the canonical one, and it still counts as one event in Run,
// Pending and sim_events_total. Receivers are grouped by shard through
// Engine.shardOf, so deliver never loads a receiver's host.
//
// # The shard-count-invariance contract
//
// The engine is byte-identical across every shard count and every shard
// assignment. Three mechanisms make the contract hold:
//
//  1. Canonical event order. Every shard event and arrival carries the
//     key (at, src, seq) where src is the graph index of the host whose
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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/xrand"
)

const maxTime = time.Duration(math.MaxInt64)

// minNodesPerShard is the smallest stripe that AutoShards gives a shard
// of its own. Below it, the per-epoch hand-offs and the barrier cost
// more than the second core saves; docs/SCALING.md has the crossover
// sweep it is read from.
const minNodesPerShard = 1000

// AutoShards resolves a shard setting for a deployment of n nodes on
// procs usable cores (runtime.GOMAXPROCS(0) outside tests). A nonzero
// setting is returned as given (New rejects a negative one); 0 resolves
// to as many shards as the deployment can use:
// min(procs, n/minNodesPerShard), at least 1.
// Hosts whose behaviors are safe to run on several goroutines resolve
// their setting here before sizing the engine and any pool around it,
// so the shard count may depend on the machine while the output, by
// the shard-count-invariance contract, does not.
func AutoShards(shards, n, procs int) int {
	if shards != 0 {
		return shards
	}
	return max(1, min(procs, n/minNodesPerShard))
}

// shard owns one partition of the node set: its heaps, clock, and
// recycling pools. Fields are only touched by the shard's goroutine
// during an epoch, or by the coordinator while all shards sit at a
// barrier — never both at once.
type shard struct {
	eng   *Engine
	id    int
	now   time.Duration
	queue eventQueue

	// recs is the slab of transmission records with arrivals here, recq
	// their heap keyed by next arrival, and freeRecs the free slots.
	recs     []txRecord
	recq     recordQueue
	freeRecs []int32

	// out[k] buffers records addressed to shard k; the coordinator
	// drains every outbox into the target heaps at the epoch barrier.
	out [][]txRecord
	// open lists the records deliver is filling, one per receiving
	// shard, and is empty between transmissions; openSlot is the slab
	// slot of this shard's own.
	open     []openRec
	openSlot int32

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
	// scratch is the working memory this shard's behaviors share (nil
	// until the first one asks; see host.Scratch). memoHits and
	// memoMisses are its memo counts already added to the obs counters.
	scratch              *node.Scratch
	memoHits, memoMisses uint64
	// poisonScratch junks scratch after every callback (poison.go).
	poisonScratch bool
	// one is the receiver list of a unicast (Engine.SendTo).
	one [1]int32
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

// txRecord is one transmission's arrivals at one shard. rcvs is sorted
// by (at, seq) and next indexes the arrival to dispatch next, so the
// record's heap key is (rcvs[next].at, src, rcvs[next].seq).
type txRecord struct {
	txAt time.Duration
	src  int32
	next int32
	from node.ID
	pkt  []byte
	rcvs []arrival
	// tr, with a Trace hook and a fault plan both set, is the trace
	// record the receivers' fault verdicts land in. Every receiver then
	// ships, numbered tr.seq+1, tr.seq+2, ... in neighbor order, so an
	// arrival's trace slot is seq-tr.seq-1.
	tr *txTrace
}

// arrival is one receiver's delivery in a transmission record.
type arrival struct {
	at  time.Duration
	seq uint64
	to  int32
	// lost is the sender-side Config.Loss verdict; a lost arrival ships
	// only under a fault plan, whose chains advance on every arrival.
	lost bool
}

// openRec is a record of the transmission deliver is writing and the
// shard it is for.
type openRec struct {
	d int32
	r *txRecord
}

func newShard(e *Engine, id int) *shard {
	s := &shard{
		eng: e,
		id:  id,
		out: make([][]txRecord, len(e.shards)),
	}
	s.free.disabled = e.cfg.DisablePooling
	s.pkts.disabled = e.cfg.DisablePooling
	s.pkts.poison = e.cfg.PoisonRecycled
	s.poisonScratch = e.cfg.PoisonRecycled || scratchPoisonTag
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

// runEpoch processes every pending event and arrival strictly before
// limit, merging the two heaps by key. It runs on the shard's goroutine,
// or inline when S == 1.
func (s *shard) runEpoch(limit time.Duration) {
	n := 0
	for {
		if len(s.recq) > 0 && s.recq[0].at < limit &&
			(len(s.queue) == 0 || s.recq[0].before(s.queue[0].key)) {
			s.arrive()
		} else if len(s.queue) > 0 && s.queue[0].at < limit {
			ev := s.queue.pop()
			s.now = ev.at
			s.dispatch(ev)
		} else {
			break
		}
		if s.poisonScratch {
			s.junkScratch()
		}
		n++
	}
	s.processed += n
}

// next returns the time of the shard's earliest event or arrival.
func (s *shard) next() time.Duration {
	t := maxTime
	if len(s.queue) > 0 {
		t = s.queue[0].at
	}
	if len(s.recq) > 0 {
		t = min(t, s.recq[0].at)
	}
	return t
}

func (s *shard) dispatch(ev *event) {
	switch ev.kind {
	case evStart:
		if ev.h.alive {
			ev.h.behavior.Start(ev.h)
		}
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

// deliver carries one transmission from h's radio position to the
// receivers nbs, writing one transmission record per receiving shard.
// Each record holds one copy of pkt, so the sender's later reuse of its
// buffer cannot corrupt a delivery.
//
// The sender's private medium stream supplies exactly two variates
// (loss, jitter) per receiver in order, lost or not, so loss outcomes
// never shift later draws. Each shipped arrival takes the next sequence
// on the sender's lane, in neighbor order; sorting a record's arrivals by
// (at, seq) then gives the canonical order. A packet lost to Config.Loss
// still ships when a fault plan is set, because fault chains advance on
// every arrival.
func (s *shard) deliver(h *host, from node.ID, pkt []byte, nbs []int32) {
	e := s.eng
	txAt := s.now
	med := h.mediumStream()
	jit := e.cfg.Jitter
	if s.inj != nil && jit > 0 {
		jit = time.Duration(float64(jit) * s.inj.JitterScale(txAt))
	}
	var tr, rtr *txTrace
	if e.cfg.Trace != nil {
		tr = s.newTrace(h, from, pkt, nbs)
		if s.inj != nil {
			rtr = tr
		}
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
		h.lseq++
		at := txAt + delay
		if rtr != nil {
			rtr.last = max(rtr.last, at)
		}
		d := e.shardOf[nb]
		var r *txRecord
		for _, o := range s.open {
			if o.d == d {
				r = o.r
				break
			}
		}
		if r == nil {
			r = s.openRecord(int(d))
			r.txAt, r.src, r.next, r.from, r.tr = txAt, int32(h.idx), 0, from, rtr
			r.pkt = append(r.pkt[:0], pkt...)
			r.rcvs = r.rcvs[:0]
			s.open = append(s.open, openRec{d, r})
		}
		r.rcvs = append(r.rcvs, arrival{at: at, seq: h.lseq, to: nb, lost: lost})
	}
	for i, o := range s.open {
		s.open[i] = openRec{}
		sortArrivals(o.r.rcvs)
		if int(o.d) == s.id {
			a := &o.r.rcvs[0]
			s.recq.push(a.at, laneKey(o.r.src, a.seq), s.openSlot)
		}
	}
	s.open = s.open[:0]
}

// openRecord starts the record of the current transmission for shard d:
// a slab slot for the shard's own, an outbox entry for any other.
func (s *shard) openRecord(d int) *txRecord {
	if d == s.id {
		s.openSlot = s.allocRecord()
		return &s.recs[s.openSlot]
	}
	o := s.out[d]
	if len(o) < cap(o) {
		o = o[:len(o)+1]
	} else {
		o = append(o, txRecord{})
	}
	s.out[d] = o
	return &o[len(o)-1]
}

// allocRecord returns a free slab slot, growing the slab if none is.
func (s *shard) allocRecord() int32 {
	if last := len(s.freeRecs) - 1; last >= 0 {
		slot := s.freeRecs[last]
		s.freeRecs = s.freeRecs[:last]
		return slot
	}
	s.recs = append(s.recs, txRecord{})
	return int32(len(s.recs) - 1)
}

// freeRecord returns a dispatched record's slot to the free list. The
// slot keeps its packet and arrival buffers for the next record unless
// pooling is off.
func (s *shard) freeRecord(slot int32) {
	r := &s.recs[slot]
	r.tr = nil
	if s.eng.cfg.DisablePooling {
		r.pkt, r.rcvs = nil, nil
	} else if s.pkts.poison {
		poison(r.pkt)
	}
	s.freeRecs = append(s.freeRecs, slot)
}

// sortArrivals sorts a record's arrivals by (at, seq). They were
// appended in seq order, so a stable insertion sort on at suffices; a
// record holds about as many arrivals as a node has neighbors.
func sortArrivals(a []arrival) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i
		for ; j > 0 && a[j-1].at > x.at; j-- {
			a[j] = a[j-1]
		}
		a[j] = x
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

// arrive dispatches the earliest record's next arrival on the
// receiver's shard: the fault-plan verdict is decided here, in canonical
// arrival order, then the packet is dropped, handed to the collision
// model, or delivered. Losses come first, so a lost packet never
// occupies the receiver's radio and can never collide with another
// reception (TestLossBeforeCollision*). The record is advanced, and its
// packet copied out, before any callback runs: a callback may transmit,
// which may grow the slab or reuse the record's slot.
func (s *shard) arrive() {
	e := s.eng
	slot := s.recq[0].val
	r := &s.recs[slot]
	a := r.rcvs[r.next]
	from := r.from
	s.now = a.at
	lost := a.lost
	if s.inj != nil && s.inj.Drop(r.txAt, int(r.src), int(a.to)) {
		lost = true
		if tr := r.tr; tr != nil {
			tr.lost[a.seq-tr.seq-1] = true
		}
	}
	var pkt []byte
	if !lost {
		pkt = s.pkts.get(len(r.pkt))
		copy(pkt, r.pkt)
	}
	if r.next++; int(r.next) < len(r.rcvs) {
		nx := &r.rcvs[r.next]
		s.recq.rekeyTop(nx.at, laneKey(r.src, nx.seq))
	} else {
		s.recq.pop()
		s.freeRecord(slot)
	}
	if lost {
		e.m.lost.Inc()
		return
	}
	rcv := &e.hosts[a.to]
	if e.cfg.Collisions {
		// The reception starts now (the arrival time already includes
		// the propagation delay); only the end of airtime needs a
		// future event, keyed on the receiver's lane.
		airtime := e.cfg.AirtimePerByte * time.Duration(len(pkt))
		if airtime <= 0 {
			airtime = time.Microsecond
		}
		rx := &reception{endsAt: s.now + airtime}
		s.rxBegin(rcv, rx)
		end := s.pushHostEvent(s.now+airtime, rcv, evRxEnd)
		end.from = from
		end.pkt = pkt
		end.rx = rx
		return
	}
	s.receive(rcv, from, pkt)
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
	defer e.publishMemoStats()
	var w *workers
	if len(e.shards) > 1 {
		w = startWorkers(len(e.shards) - 1)
		defer w.stop()
	}
	total := 0
	for {
		gt := maxTime // earliest coordinator event
		if len(e.queue) > 0 {
			gt = e.queue[0].at
		}
		st := maxTime // earliest shard event or arrival
		for _, s := range e.shards {
			st = min(st, s.next())
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
				for _, s := range e.shards {
					if s.poisonScratch {
						s.junkScratch()
					}
				}
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
				w.epoch(e.shards, limit, e.m.stall)
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

// workers runs shard epochs on goroutines of their own, for the length
// of one run. They are not bound to shards: an epoch's shards go out as
// jobs, and whichever of a worker and the coordinator claims a job first
// runs it. The channel hand-off or the claim orders a shard's previous
// epoch before its next.
type workers struct {
	jobs chan *job
	done chan time.Time
	due  []*shard
	sent []*job
	wg   sync.WaitGroup
}

// job is one shard's epoch. timed asks the worker to report when it
// finished. A job is never reused: a worker that lost the claim may
// still hold it.
type job struct {
	s       *shard
	limit   time.Duration
	timed   bool
	claimed atomic.Bool
}

// startWorkers starts n workers. Both channels hold one epoch's worth
// of sends, at most n: a full jobs buffer only means the coordinator
// runs the offer itself.
func startWorkers(n int) *workers {
	w := &workers{jobs: make(chan *job, n), done: make(chan time.Time, n)}
	w.wg.Add(n)
	for range n {
		go func() {
			defer w.wg.Done()
			for j := range w.jobs {
				if !j.claimed.CompareAndSwap(false, true) {
					continue
				}
				j.s.runEpoch(j.limit)
				var fin time.Time
				if j.timed {
					fin = time.Now()
				}
				w.done <- fin
			}
		}()
	}
	return w
}

// epoch runs every shard with work due before limit and waits for all of
// them. The coordinator runs the first inline and offers the others to
// the workers; when it is done it claims, and runs, every offer no
// worker has taken yet, so a worker that is slow to wake costs no more
// than running the shard serially. A shard with nothing due is not
// woken, so an epoch with one busy shard makes no hand-off at all.
// stall, if non-nil, observes the wall-clock spread between the first
// and the last shard finishing; an idle shard finishes as the epoch
// starts.
func (w *workers) epoch(shards []*shard, limit time.Duration, stall *obs.Histogram) {
	due := w.due[:0]
	for _, s := range shards {
		if s.next() < limit {
			due = append(due, s)
		}
	}
	w.due = due
	if len(due) == 0 {
		return
	}
	timed := stall != nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	sent := w.sent[:0]
	for _, s := range due[1:] {
		j := &job{s: s, limit: limit, timed: timed}
		sent = append(sent, j)
		select {
		case w.jobs <- j:
		default: // every worker is behind; the claim below takes it
		}
	}
	w.sent = sent
	var first, last time.Time
	finish := func(fin time.Time) {
		if first.IsZero() || fin.Before(first) {
			first = fin
		}
		if fin.After(last) {
			last = fin
		}
	}
	due[0].runEpoch(limit)
	if timed {
		finish(time.Now())
	}
	pending := 0
	for _, j := range sent {
		if !j.claimed.CompareAndSwap(false, true) {
			pending++
			continue
		}
		j.s.runEpoch(limit)
		if timed {
			finish(time.Now())
		}
	}
	for range pending {
		if fin := <-w.done; timed {
			finish(fin)
		}
	}
	clear(w.sent)
	if !timed {
		return
	}
	if len(due) < len(shards) {
		first = start
	}
	stall.Observe(last.Sub(first).Seconds())
}

// stop ends the workers and waits for them to exit.
func (w *workers) stop() {
	close(w.jobs)
	w.wg.Wait()
}

// barrier runs on the coordinator with every shard parked and every
// event before frontier done: it moves the outboxes' records into the
// target shards' slabs and record heaps, then replays buffered
// callbacks. Heap order depends only on the canonical keys, so the drain
// order does not matter. A record moves by swapping it with a free slab
// slot, so its buffers change hands instead of being copied and the
// outbox entry inherits the free slot's buffers for reuse.
func (e *Engine) barrier(frontier time.Duration) {
	for _, src := range e.shards {
		for t, recs := range src.out {
			if len(recs) == 0 {
				continue
			}
			dst := e.shards[t]
			n := 0
			for i := range recs {
				slot := dst.allocRecord()
				dst.recs[slot], recs[i] = recs[i], dst.recs[slot]
				r := &dst.recs[slot]
				a := &r.rcvs[0]
				dst.recq.push(a.at, laneKey(r.src, a.seq), slot)
				n += len(r.rcvs)
			}
			e.m.xmsgs.Add(uint64(n))
			src.out[t] = recs[:0]
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
