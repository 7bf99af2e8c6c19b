package core

import (
	"time"

	"repro/internal/crypt"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Phase is a sensor's position in the protocol lifecycle.
type Phase int

// Protocol phases.
const (
	// PhaseElection: the node has booted and its HELLO timer is pending —
	// it will either hear a HELLO and join, or fire and become a head
	// (Section IV-B.1).
	PhaseElection Phase = iota
	// PhaseDecided: cluster membership fixed; waiting to send the
	// LINK-ADVERT and for the master-key era to end (Section IV-B.2).
	PhaseDecided
	// PhaseOperational: Km erased; forwarding, refresh, revocation and
	// join-response machinery active (Section IV-C onwards).
	PhaseOperational
	// PhaseJoining: a late-deployed node collecting JOIN-RESP messages
	// (Section IV-E).
	PhaseJoining
	// PhaseFailed: a late-deployed node that exhausted its join retries.
	PhaseFailed
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseElection:
		return "election"
	case PhaseDecided:
		return "decided"
	case PhaseOperational:
		return "operational"
	case PhaseJoining:
		return "joining"
	case PhaseFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Timer tags.
const (
	tagHello node.Tag = iota + 1
	tagLinkAdvert
	tagOperational
	tagJoinResp
	tagJoinDone
	tagBeacon
	tagRefresh
	tagKeepAlive
	tagRepairElect
	tagHelloRetry
	tagLinkRetry
	tagDataRetry
	tagBatchFlush
)

// HopUnknown marks a node that has not yet acquired a routing gradient.
const HopUnknown uint16 = 0xFFFF

// maxJoinAttempts bounds how many JOIN-REQ rounds a late node tries before
// giving up.
const maxJoinAttempts = 5

// Malice holds adversary-controlled switches on a compromised-but-running
// node. Zero value = honest behavior.
type Malice struct {
	// DropData makes the node a selective-forwarding attacker: it accepts
	// and authenticates traffic but silently refuses to relay it
	// (Section VI, "Selective forwarding").
	DropData bool
}

// Delivery is one reading that reached the base station.
type Delivery struct {
	Origin    node.ID
	Seq       uint32
	Data      []byte
	At        time.Duration
	Encrypted bool // whether Step 1 protected it end-to-end
}

// bsState is the extra state carried by the base-station node.
type bsState struct {
	auth       *Authority
	nextChain  int
	counters   map[node.ID]uint64
	deliveries []Delivery
	// OnDeliver, if set, observes each delivery as it happens.
	OnDeliver func(Delivery)
	round     uint32
	// arena backs Delivery.Data for decrypted readings: plaintexts are
	// opened into sensor scratch and then copied into append-only chunks
	// here, so the steady-state open path allocates nothing. Chunks are
	// never re-sliced or recycled once handed out, so retained Delivery
	// slices can never alias scratch or each other's tails.
	arena []byte
	// nodeKeys caches the per-origin Ki the authority derives, so the
	// steady-state open path never reruns the PRF derivation (which
	// allocates) per packet. Bounded like the sealer cache.
	nodeKeys map[node.ID]crypt.Key
}

// arenaChunk is the allocation granule of the base station's delivery
// arena. Readings are tiny, so one chunk amortizes thousands of copies.
const arenaChunk = 64 << 10

// arenaCopy copies b into the arena and returns the stable copy.
func (bs *bsState) arenaCopy(b []byte) []byte {
	if len(b) > cap(bs.arena)-len(bs.arena) {
		size := arenaChunk
		if len(b) > size {
			size = len(b)
		}
		// The old chunk's tail is abandoned, never reused: outstanding
		// Delivery.Data slices must stay immutable.
		bs.arena = make([]byte, 0, size)
	}
	start := len(bs.arena)
	bs.arena = append(bs.arena, b...)
	return bs.arena[start : start+len(b) : start+len(b)]
}

// Sensor is the protocol state machine run by every node, base station
// included (the base station attaches a bsState). It implements
// node.Behavior; all fields are owned by the hosting runtime's callback
// thread.
type Sensor struct {
	cfg Config
	ks  *node.KeyStore
	id  node.ID

	phase      Phase
	isHead     bool
	helloTimer node.TimerID

	// txNonce makes every seal nonce unique per sender: (id<<32 | ctr).
	txNonce uint32

	// Routing gradient.
	hop   uint16
	round uint32

	// Duplicate suppression for forwarded data.
	dedup dedupSet

	// Application state.
	readingSeq uint32
	readingCtr uint64 // Step-1 counter shared with the base station

	// Per-cluster refresh bookkeeping — the refresh epoch and the
	// one-epoch-old key (so refresh messages sealed under the previous
	// key still authenticate during the changeover) — kept as one slice
	// sorted by CID. A node knows only a handful of clusters, so binary
	// search beats two per-node maps, and the flat layout drops the
	// maps' bucket overhead at the 10^6-node scale.
	meta []clusterMeta

	pendingJoinResp bool
	joinAttempts    int

	// Cluster-repair state (active when cfg.KeepAlivePeriod > 0).
	// headID tracks who this node currently believes heads its cluster;
	// it is maintained from setup on so repair can take over seamlessly.
	headID        node.ID
	lastKeepAlive time.Duration
	repairing     bool
	repairTimer   node.TimerID
	repaired      bool
	kaLoop        bool // a keep-alive tick is armed (one chain per node)

	// Bounded setup retransmissions (active when cfg.SetupRetries > 0).
	helloRetries int
	linkRetries  int

	// Ack-gated forwarding (active when cfg.DataRetries > 0).
	// pending holds the transmitted readings awaiting an implicit ack,
	// sorted by key; see pendingSend. retryMinAt caches the earliest
	// nextAt across pending so the retry tick can skip the scan when
	// nothing is due yet — the common case, since implicit acks delete
	// entries but their armed timers still fire. Only meaningful while
	// pending is non-empty, and allowed to go stale-low when the
	// earliest entry is acked (the next tick then does one wasted scan
	// and re-tightens it).
	pending    []pendingSend
	retryMinAt time.Duration
	// retryTimerAt is the deadline of the earliest outstanding
	// tagDataRetry fire, or 0 when none is tracked (backoffs are always
	// positive, so 0 is never a real deadline). Later forgotten fires
	// may still be outstanding; they arrive as spurious ticks.
	retryTimerAt time.Duration
	degraded     bool

	// DATA-frame queue. Queued readings live as (origin, seq, offset)
	// entries over one slab so steady-state sending allocates nothing.
	// With cfg.BatchSize <= 1 the queue empties on every enqueue.
	batchQ     []batchEntry
	batchBuf   []byte
	batchArmed bool

	// Mobility handoff state (active when cfg.HandoffEnabled; see
	// docs/MOBILITY.md). mobile marks a node provisioned with both Km
	// and KMC via Authority.MobileMaterialFor; it retains KMC after
	// every join so it can hand off repeatedly.
	mobile       bool
	inHandoff    bool
	handoffCID   uint32 // cluster being left, reported on completion
	handoffStart time.Duration
	handoffs     int

	// OnRepaired, if set, observes this node winning a repair election
	// (taking over headship of cid at the given time).
	//
	// OnRepaired, OnHandoff, Peek and the base station's OnDeliver run
	// inside the node's own protocol handlers, on whatever goroutine
	// the host runs the node on. On a deployment that resolved to more
	// than one shard (DeployOptions.Shards) that is the goroutine of
	// the node's shard, so hooks of nodes on different shards run
	// concurrently with each other and with nothing else of the caller
	// (which is blocked in Run). A hook that writes state shared across
	// nodes must synchronize (an atomic counter) or write a slot of its
	// own node's; one node's hooks never overlap each other.
	OnRepaired func(cid uint32, newHead node.ID, at time.Duration)

	// OnHandoff, if set, observes each completed cluster handoff: the
	// cluster left, the cluster joined (equal if the node rejoined its
	// old cluster after transient silence), and the leave/join times.
	OnHandoff func(oldCID, newCID uint32, started, completed time.Duration)

	// Peek, if set and a plaintext (Step-1-disabled) reading passes
	// through, is consulted before forwarding; returning false discards
	// the message — the paper's data-fusion "peak at encrypted data and
	// decide upon forwarding or discarding redundant information".
	Peek func(origin node.ID, seq uint32, data []byte) bool

	// Malice is the adversary's hook on a compromised node.
	Malice Malice

	// om holds the node's observability counters; all-nil (no-op) when
	// cfg.Obs is unset. repairStartAt feeds the takeover histogram.
	om            coreMetrics
	repairStartAt time.Duration

	// sealers maps each key the node has sealed or opened under to its
	// keyed AEAD state (subkey derivations, AES key schedule, HMAC
	// midstates); the mutable half that runs it is the host's
	// (ctx.Scratch), so steady-state sealing and opening allocate
	// nothing. The keyed states are not the node's own: ring, the
	// host's keyring, interns one per distinct key and every entry here
	// holds one reference to it, so a cluster key shared by a whole
	// cluster and its border neighbours is derived once per deployment,
	// and in the simulator a frame sealed under it is verified once per
	// shard (crypt.NewSharedScratch). The map
	// therefore holds exactly the node's own keys in use, and an entry
	// leaves with its key: dropCluster, setPrevKey, clearPrevKey and
	// dropMeta go through evictSealer, Km erasure, repair's clean-up
	// and the maxCachedSealers overflow through dropSealers, and both
	// release the ring reference. Neither ring nor map iteration order
	// reaches any output.
	sealers map[crypt.Key]*crypt.KeyState
	ring    *crypt.Keyring // set at the first acquire; a node never changes host

	// aadBuf is FrameAAD / InnerAAD scratch. Every other buffer a frame
	// is marshaled, sealed, opened or decoded into is the host's
	// (ctx.Scratch, a node.Scratch shared by every node of the host's
	// goroutine), valid only inside the callback that fetched it. Each
	// is consumed before the callback returns (Broadcast copies the
	// packet before returning in every runtime), and whatever outlives
	// the callback (the batch queue, pending-retry copies, arena-backed
	// deliveries) is copied out of it.
	aadBuf [5]byte

	bs *bsState
}

// maxCachedSealers bounds the per-sensor sealer map. The base station
// holds one entry per origin node key, so the bound is sized for the
// multi-thousand-node topologies internal/geom targets; on overflow the
// whole map is dropped (deterministically — no eviction order) and
// rebuilt on demand.
const maxCachedSealers = 4096

// sealerFor returns the keyed AEAD state for key, acquiring a reference
// from the host's keyring on the node's first use of the key.
func (s *Sensor) sealerFor(ctx node.Context, key crypt.Key) *crypt.KeyState {
	if st, ok := s.sealers[key]; ok {
		return st
	}
	if s.sealers == nil {
		s.sealers = make(map[crypt.Key]*crypt.KeyState, 8)
		s.ring = ctx.Keyring()
	} else if len(s.sealers) >= maxCachedSealers {
		s.dropSealers()
	}
	st := s.ring.Acquire(key)
	s.sealers[key] = st
	return st
}

// evictSealer forgets k's keyed state and releases the node's keyring
// reference to it. Evicting a key the node never used is a no-op.
func (s *Sensor) evictSealer(k crypt.Key) {
	if _, ok := s.sealers[k]; ok {
		delete(s.sealers, k)
		s.ring.Release(k)
	}
}

// dropSealers evicts every keyed state the node holds.
func (s *Sensor) dropSealers() {
	for k := range s.sealers {
		s.ring.Release(k)
	}
	clear(s.sealers)
}

// coreMetrics are the protocol counters shared by every sensor built
// against the same registry. With observability off each field is nil
// and every hook is a single nil check.
type coreMetrics struct {
	elections   *obs.Counter
	setupTx     *obs.Counter
	setupRetx   *obs.Counter
	kmErasures  *obs.Counter
	repairs     *obs.Counter
	repairTime  *obs.Histogram
	dataRetx    *obs.Counter
	degraded    *obs.Counter
	deliveries  *obs.Counter
	handoffs    *obs.Counter
	handoffTime *obs.Histogram
}

func newCoreMetrics(r *obs.Registry) coreMetrics {
	return coreMetrics{
		elections:   r.Counter("core_elections_total", "clusterhead self-elections during setup"),
		setupTx:     r.Counter("core_setup_tx_total", "setup-phase broadcasts (HELLO and LINK-ADVERT, retries included)"),
		setupRetx:   r.Counter("core_setup_retx_total", "setup-phase retransmissions (HELLO and LINK-ADVERT retries)"),
		kmErasures:  r.Counter("core_km_erasures_total", "nodes that erased the master key Km"),
		repairs:     r.Counter("core_repairs_total", "repair elections won (headship takeovers after a head crash)"),
		repairTime:  r.Histogram("core_repair_takeover_seconds", "virtual time from repair-election start to headship claim", nil),
		dataRetx:    r.Counter("core_data_retx_total", "ack-gated data retransmissions"),
		degraded:    r.Counter("core_degraded_total", "readings that exhausted their retries unacknowledged"),
		deliveries:  r.Counter("core_bs_deliveries_total", "readings accepted by the base station"),
		handoffs:    r.Counter("core_handoffs_total", "cluster handoffs completed by mobile nodes"),
		handoffTime: r.Histogram("core_handoff_seconds", "virtual time from cluster departure to join completion", nil),
	}
}

// NewSensor builds a sensor from its provisioning material.
func NewSensor(cfg Config, m Material) *Sensor {
	cfg = cfg.withDefaults()
	return &Sensor{
		cfg: cfg,
		ks:  keyStoreFor(m),
		id:  m.ID,
		hop: HopUnknown,
		// Mobile provisioning carries both masters (MobileMaterialFor);
		// original nodes hold only Km, late additions only KMC.
		mobile: !m.Master.IsZero() && !m.AddMaster.IsZero(),
		om:     newCoreMetrics(cfg.Obs.Registry()),
	}
}

// NewBaseStation builds the base-station node: a sensor that additionally
// holds the authority's key registry, terminates data traffic, floods
// routing beacons, and issues revocations.
func NewBaseStation(cfg Config, m Material, auth *Authority) *Sensor {
	s := NewSensor(cfg, m)
	s.bs = &bsState{
		auth:     auth,
		counters: make(map[node.ID]uint64),
	}
	s.hop = 0
	return s
}

// --- accessors used by experiments, tests, and tools ---

// ID returns the node's identifier.
func (s *Sensor) ID() node.ID { return s.id }

// Phase returns the current lifecycle phase.
func (s *Sensor) Phase() Phase { return s.phase }

// IsHead reports whether this node elected itself clusterhead during
// setup. After setup "cluster heads turn to normal members"; the flag is
// kept for the Figure 8 statistic only.
func (s *Sensor) IsHead() bool { return s.isHead }

// Cluster returns the node's cluster ID and whether it has one.
func (s *Sensor) Cluster() (uint32, bool) { return s.ks.CID, s.ks.InCluster }

// ClusterKeyCount returns how many cluster keys the node stores (own plus
// neighbors) — the Figure 6 quantity.
func (s *Sensor) ClusterKeyCount() int { return s.ks.ClusterKeyCount() }

// NeighborClusters returns the IDs of neighboring clusters whose keys the
// node holds.
func (s *Sensor) NeighborClusters() []uint32 { return s.ks.NeighborCIDs() }

// Hop returns the node's routing-gradient height (HopUnknown if none).
func (s *Sensor) Hop() uint16 { return s.hop }

// Head returns the node this sensor currently believes heads its cluster:
// the original clusterhead from setup, or a locally re-elected successor
// after a repair. Meaningful only while the node is in a cluster.
func (s *Sensor) Head() node.ID { return s.headID }

// Repaired reports whether this node won a repair election and took over
// headship of its cluster after the original head went silent.
func (s *Sensor) Repaired() bool { return s.repaired }

// Mobile reports whether the node was provisioned with mobile material
// (both Km and KMC; see Authority.MobileMaterialFor).
func (s *Sensor) Mobile() bool { return s.mobile }

// Handoffs returns how many cluster handoffs this node has completed.
func (s *Sensor) Handoffs() int { return s.handoffs }

// InHandoff reports whether the node is currently between clusters: it
// left a cluster after keep-alive loss and its re-join has not finished.
func (s *Sensor) InHandoff() bool { return s.inHandoff }

// Degraded reports whether the node exhausted its data retries without
// overhearing an acknowledgement since the last acked transmission. Only
// meaningful when Config.DataRetries > 0.
func (s *Sensor) Degraded() bool { return s.degraded }

// Epoch returns the refresh epoch the node tracks for cluster cid.
func (s *Sensor) Epoch(cid uint32) uint32 { return s.epochOf(cid) }

// clusterMeta is one known cluster's refresh bookkeeping; Sensor.meta
// keeps these sorted by CID.
type clusterMeta struct {
	cid     uint32
	epoch   uint32
	hasPrev bool
	prev    crypt.Key
}

// metaIdx binary-searches s.meta for cid, returning the insertion point
// and whether the entry exists.
func (s *Sensor) metaIdx(cid uint32) (int, bool) {
	lo, hi := 0, len(s.meta)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.meta[mid].cid < cid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.meta) && s.meta[lo].cid == cid
}

// metaEnsure returns the entry for cid, inserting a zero one in sorted
// position when the cluster is new. The pointer is valid only until the
// next insertion.
func (s *Sensor) metaEnsure(cid uint32) *clusterMeta {
	i, ok := s.metaIdx(cid)
	if !ok {
		s.meta = append(s.meta, clusterMeta{})
		copy(s.meta[i+1:], s.meta[i:])
		s.meta[i] = clusterMeta{cid: cid}
	}
	return &s.meta[i]
}

// epochOf returns cid's refresh epoch (0 when unknown).
func (s *Sensor) epochOf(cid uint32) uint32 {
	if i, ok := s.metaIdx(cid); ok {
		return s.meta[i].epoch
	}
	return 0
}

// setEpoch records cid's refresh epoch. It creates the entry: an
// entry's existence is what enrolls the cluster in epoch-advancing
// sweeps (HashRefresh) and in state export.
func (s *Sensor) setEpoch(cid, epoch uint32) { s.metaEnsure(cid).epoch = epoch }

// prevKeyOf returns the one-epoch-old key kept for the changeover
// window.
func (s *Sensor) prevKeyOf(cid uint32) (crypt.Key, bool) {
	if i, ok := s.metaIdx(cid); ok && s.meta[i].hasPrev {
		return s.meta[i].prev, true
	}
	return crypt.Key{}, false
}

// setPrevKey retains cid's outgoing key for one changeover window. The
// key it displaces leaves the node, and its cached sealer with it.
func (s *Sensor) setPrevKey(cid uint32, k crypt.Key) {
	m := s.metaEnsure(cid)
	if m.hasPrev && m.prev != k {
		s.evictSealer(m.prev)
	}
	m.prev, m.hasPrev = k, true
}

// clearPrevKey forgets the retained key (and its cached sealer) without
// touching the epoch.
func (s *Sensor) clearPrevKey(cid uint32) {
	if i, ok := s.metaIdx(cid); ok {
		if s.meta[i].hasPrev {
			s.evictSealer(s.meta[i].prev)
		}
		s.meta[i].prev, s.meta[i].hasPrev = crypt.Key{}, false
	}
}

// dropMeta erases all bookkeeping for cid (eviction), including the
// retained key's cached sealer.
func (s *Sensor) dropMeta(cid uint32) {
	if i, ok := s.metaIdx(cid); ok {
		if s.meta[i].hasPrev {
			s.evictSealer(s.meta[i].prev)
		}
		s.meta = append(s.meta[:i], s.meta[i+1:]...)
	}
}

// dropCluster deletes cid's key from the KeyStore together with its
// cached sealer, whose derived Kencr/KMAC would otherwise outlive the
// erased key.
func (s *Sensor) dropCluster(cid uint32) {
	if k, ok := s.ks.KeyFor(cid); ok {
		s.evictSealer(k)
	}
	s.ks.DropCluster(cid)
}

// KeyStore exposes the node's key material to the adversary model (node
// capture reads memory) and to tests. Honest protocol code never reaches
// into another node's store.
func (s *Sensor) KeyStore() *node.KeyStore { return s.ks }

// IsBaseStation reports whether this sensor carries the base-station role.
func (s *Sensor) IsBaseStation() bool { return s.bs != nil }

// Deliveries returns the readings the base station has accepted. Only
// meaningful on the base station.
func (s *Sensor) Deliveries() []Delivery {
	if s.bs == nil {
		return nil
	}
	return s.bs.deliveries
}

// SetOnDeliver registers a delivery observer on the base station.
func (s *Sensor) SetOnDeliver(fn func(Delivery)) {
	if s.bs != nil {
		s.bs.OnDeliver = fn
	}
}

// --- node.Behavior ---

// Start implements node.Behavior: it arms the setup-phase timers
// (original and mobile nodes, which hold Km) or begins the join
// procedure (late-deployed nodes, which hold only KMC).
func (s *Sensor) Start(ctx node.Context) {
	if s.ks.Master.IsZero() && !s.ks.AddMaster.IsZero() {
		s.startJoin(ctx)
		return
	}
	s.phase = PhaseElection
	// Draw the clusterhead delay from an exponential distribution
	// (Section IV-B.1), capped just inside the phase boundary so every
	// node is decided by T1.
	delay := time.Duration(ctx.Rand().Exp(float64(s.cfg.HelloMeanDelay)))
	if maxDelay := s.cfg.ClusterPhaseEnd - time.Millisecond; delay > maxDelay {
		delay = maxDelay
	}
	s.helloTimer = ctx.SetTimer(delay, tagHello)
	// LINK-ADVERT at T1 plus a uniform spread; Km erasure at T2.
	linkAt := s.cfg.ClusterPhaseEnd +
		time.Duration(ctx.Rand().Uint64n(uint64(s.cfg.LinkSpread)))
	ctx.SetTimer(linkAt-ctx.Now(), tagLinkAdvert)
	ctx.SetTimer(s.cfg.OperationalAt-ctx.Now(), tagOperational)
}

// Timer implements node.Behavior.
func (s *Sensor) Timer(ctx node.Context, tag node.Tag) {
	switch tag {
	case tagHello:
		s.becomeHead(ctx)
	case tagLinkAdvert:
		s.sendLinkAdvert(ctx)
	case tagOperational:
		s.enterOperational(ctx)
	case tagJoinResp:
		s.sendJoinResp(ctx)
	case tagJoinDone:
		s.finishJoinWindow(ctx)
	case tagBeacon:
		s.beaconTick(ctx)
	case tagRefresh:
		s.periodicRefresh(ctx)
	case tagKeepAlive:
		s.keepAliveTick(ctx)
	case tagRepairElect:
		s.claimHeadship(ctx)
	case tagHelloRetry:
		s.helloRetry(ctx)
	case tagLinkRetry:
		s.linkRetry(ctx)
	case tagDataRetry:
		s.dataRetryTick(ctx)
	case tagBatchFlush:
		s.batchFlushTick(ctx)
	}
}

// Receive implements node.Behavior. pkt is owned by the runtime and may
// be recycled once this returns; everything a handler keeps past that
// point is copied during body unmarshaling (wire's reader copies byte
// strings) or freshly decrypted.
func (s *Sensor) Receive(ctx node.Context, from node.ID, pkt []byte) {
	var frame wire.Frame
	if err := wire.ParseFrameInto(&frame, pkt); err != nil {
		return // garbage on the air
	}
	f := &frame
	switch f.Type {
	case wire.THello:
		s.onHello(ctx, f)
	case wire.TLinkAdvert:
		s.onLinkAdvert(ctx, f)
	case wire.TData:
		s.onData(ctx, f)
	case wire.TBeacon:
		s.onBeacon(ctx, f)
	case wire.TRevoke:
		s.onRevoke(ctx, f, pkt)
	case wire.TJoinReq:
		s.onJoinReq(ctx, f)
	case wire.TJoinResp:
		s.onJoinResp(ctx, f)
	case wire.TRefresh:
		s.onRefresh(ctx, f, pkt)
	case wire.TKeepAlive:
		s.onKeepAlive(ctx, f)
	case wire.TRepair:
		s.onRepair(ctx, f)
	}
}

// --- sealing helpers (all radio crypto goes through these, so energy is
// charged consistently) ---

// FrameAAD is the associated data bound into every sealed frame: the
// message type and the cluster-ID key selector. It is exported as part of
// the wire contract (any compatible implementation must construct it
// identically).
func FrameAAD(typ wire.Type, cid uint32) []byte {
	return []byte{byte(typ), byte(cid >> 24), byte(cid >> 16), byte(cid >> 8), byte(cid)}
}

// frameAAD is FrameAAD into the sensor's scratch; the result is valid
// until the next frameAAD/innerAAD call and is always consumed before
// then (the seal/open call it feeds reads it synchronously).
func (s *Sensor) frameAAD(typ wire.Type, cid uint32) []byte {
	s.aadBuf = [5]byte{byte(typ), byte(cid >> 24), byte(cid >> 16), byte(cid >> 8), byte(cid)}
	return s.aadBuf[:]
}

// innerAAD is InnerAAD into the same scratch.
func (s *Sensor) innerAAD(origin node.ID) []byte {
	s.aadBuf = [5]byte{0xE2, byte(origin >> 24), byte(origin >> 16), byte(origin >> 8), byte(origin)}
	return s.aadBuf[:]
}

func (s *Sensor) nextNonce() uint64 {
	s.txNonce++
	return uint64(s.id)<<32 | uint64(s.txNonce)
}

// sealFrame seals body under key and returns the marshaled frame. The
// returned packet is host scratch (TxBuf): valid until the next
// sealFrame in this callback, so it must be broadcast (the radio copies
// it before returning) or copied before another frame is sealed. body
// may be the scratch's BodyBuf.
func (s *Sensor) sealFrame(ctx node.Context, typ wire.Type, cid uint32, key crypt.Key, body []byte) []byte {
	sc := ctx.Scratch()
	nonce := s.nextNonce()
	aad := s.frameAAD(typ, cid)
	sc.SealBuf = sc.AppendSeal(s.sealerFor(ctx, key), sc.SealBuf[:0], nonce, aad, body)
	ctx.ChargeCipher(len(body))
	ctx.ChargeMAC(len(body) + len(aad))
	pkt, err := (&wire.Frame{Type: typ, CID: cid, Nonce: nonce, Payload: sc.SealBuf}).AppendMarshal(sc.TxBuf[:0])
	if err != nil {
		// Bodies are tiny and bounded; this cannot happen.
		panic("core: frame marshal: " + err.Error())
	}
	sc.TxBuf = pkt
	return pkt
}

// openFrame verifies and decrypts a received frame under key. The
// returned body is host scratch (OpenBuf): valid until the next
// openFrame in this callback. Handlers never keep it — wire's body
// unmarshalers copy every byte string they decode, except
// UnmarshalDataInto, whose result onData uses in place.
func (s *Sensor) openFrame(ctx node.Context, f *wire.Frame, key crypt.Key) ([]byte, bool) {
	sc := ctx.Scratch()
	aad := s.frameAAD(f.Type, f.CID)
	ctx.ChargeMAC(len(f.Payload) + len(aad))
	body, ok := sc.AppendOpen(s.sealerFor(ctx, key), sc.OpenBuf[:0], f.Nonce, aad, f.Payload)
	if !ok {
		return nil, false
	}
	sc.OpenBuf = body
	ctx.ChargeCipher(len(body))
	return body, true
}

// --- cluster key setup (Section IV-B) ---

// becomeHead fires when the HELLO timer expires with the node still
// undecided: it declares itself clusterhead and broadcasts the encrypted
// HELLO carrying its cluster key.
func (s *Sensor) becomeHead(ctx node.Context) {
	if s.ks.InCluster || s.phase != PhaseElection {
		return
	}
	s.isHead = true
	s.ks.JoinCluster(uint32(s.id), s.ks.CandidateClusterKey)
	s.setEpoch(uint32(s.id), 0)
	s.headID = s.id
	s.phase = PhaseDecided
	sc := ctx.Scratch()
	sc.BodyBuf = (&wire.Hello{HeadID: uint32(s.id), ClusterKey: s.ks.ClusterKey}).AppendMarshal(sc.BodyBuf[:0])
	ctx.Broadcast(s.sealFrame(ctx, wire.THello, 0, s.ks.Master, sc.BodyBuf))
	s.om.elections.Inc()
	s.om.setupTx.Inc()
	s.cfg.Obs.Emit(ctx.Now(), obs.KindElection, int(s.id), uint32(s.id), "")
	s.armHelloRetry(ctx)
}

// onHello handles a clusterhead announcement: an undecided node joins the
// sender's cluster and cancels its own candidacy.
func (s *Sensor) onHello(ctx node.Context, f *wire.Frame) {
	if s.phase != PhaseElection || s.ks.InCluster || s.ks.Master.IsZero() {
		return
	}
	body, ok := s.openFrame(ctx, f, s.ks.Master)
	if !ok {
		return
	}
	hello, err := wire.UnmarshalHello(body)
	if err != nil {
		return
	}
	ctx.CancelTimer(s.helloTimer)
	s.ks.JoinCluster(hello.HeadID, hello.ClusterKey)
	s.setEpoch(hello.HeadID, 0)
	s.headID = node.ID(hello.HeadID)
	s.phase = PhaseDecided
	// "No transmission is required for that node."
}

// sendLinkAdvert broadcasts the node's cluster identity and key under Km —
// the secure-link-establishment step that stitches clusters together.
func (s *Sensor) sendLinkAdvert(ctx node.Context) {
	if !s.ks.InCluster || s.ks.Master.IsZero() {
		return
	}
	sc := ctx.Scratch()
	sc.BodyBuf = (&wire.LinkAdvert{CID: s.ks.CID, ClusterKey: s.ks.ClusterKey}).AppendMarshal(sc.BodyBuf[:0])
	ctx.Broadcast(s.sealFrame(ctx, wire.TLinkAdvert, 0, s.ks.Master, sc.BodyBuf))
	s.om.setupTx.Inc()
	s.armLinkRetry(ctx)
}

// onLinkAdvert stores a neighboring cluster's key ("any nodes from
// neighboring clusters will store the tuple <CID, Kc>").
func (s *Sensor) onLinkAdvert(ctx node.Context, f *wire.Frame) {
	if s.ks.Master.IsZero() {
		return // operational already; Km messages are history
	}
	body, ok := s.openFrame(ctx, f, s.ks.Master)
	if !ok {
		return
	}
	adv, err := wire.UnmarshalLinkAdvert(body)
	if err != nil {
		return
	}
	if s.ks.InCluster && adv.CID == s.ks.CID {
		return // "Nodes of the same cluster simply ignore the message"
	}
	if !s.ks.HasNeighbor(adv.CID) {
		s.ks.AddNeighbor(adv.CID, adv.ClusterKey)
		s.setEpoch(adv.CID, 0)
	}
}

// enterOperational erases Km ("after the completion of the key setup
// phase, all nodes erase key Km from their memory") and, on the base
// station, launches the routing beacon.
func (s *Sensor) enterOperational(ctx node.Context) {
	if !s.ks.Master.IsZero() {
		s.om.kmErasures.Inc()
		s.cfg.Obs.Emit(ctx.Now(), obs.KindKmErase, int(s.id), s.ks.CID, "")
	}
	s.ks.EraseMaster()
	// Drop the setup-era sealer references along with Km itself, so the
	// keyring frees Km's AEAD state (and that of any other key only used
	// during setup) once the last node erases it. This is purely a
	// cache: operational traffic re-acquires the entries it uses, so
	// output is byte-identical.
	s.dropSealers()
	s.phase = PhaseOperational
	s.beaconTick(ctx)
	s.armRefreshTimer(ctx)
	s.lastKeepAlive = ctx.Now()
	s.armKeepAlive(ctx)
}

// armRefreshTimer schedules the next refresh at an absolute epoch
// boundary (OperationalAt + k*RefreshPeriod) rather than a relative
// delay, so every node — including late joiners whose clocks started
// mid-epoch — rotates at the same instants. Hash-mode refresh depends on
// this agreement; the one-epoch prevKeys fallback absorbs the residual
// skew of in-flight packets.
func (s *Sensor) armRefreshTimer(ctx node.Context) {
	if s.cfg.RefreshPeriod <= 0 {
		return
	}
	now := ctx.Now()
	elapsed := now - s.cfg.OperationalAt
	if elapsed < 0 {
		elapsed = 0
	}
	k := elapsed/s.cfg.RefreshPeriod + 1
	next := s.cfg.OperationalAt + k*s.cfg.RefreshPeriod
	ctx.SetTimer(next-now, tagRefresh)
}

// periodicRefresh runs the configured automatic key-refresh policy and
// re-arms the boundary-aligned timer. In hash mode every node rotates
// independently; in re-key mode only original clusterheads originate,
// everyone else just keeps the schedule.
func (s *Sensor) periodicRefresh(ctx node.Context) {
	if s.phase != PhaseOperational {
		return
	}
	switch s.cfg.RefreshMode {
	case RefreshHash:
		s.HashRefresh(ctx)
	case RefreshRekey:
		s.StartClusterRefresh(ctx)
	}
	s.armRefreshTimer(ctx)
}
