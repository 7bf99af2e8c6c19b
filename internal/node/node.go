// Package node defines the runtime-independent node abstraction: the
// Behavior state machine every protocol implements, the Context through
// which a behavior talks to whatever runtime hosts it, and the KeyStore
// that holds a sensor's key material with explicit erasure.
//
// Protocol logic (internal/core and the baselines) is written once against
// these interfaces and runs unmodified under two hosts:
//
//   - internal/sim, a deterministic sequential discrete-event simulator
//     used for every experiment (reproducible given a seed), and
//   - internal/live, a goroutine-per-node runtime with channel radios used
//     by the examples to exercise the same code under real concurrency.
package node

import (
	"time"

	"repro/internal/crypt"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// ID identifies a node on the radio. The base station is, by convention in
// this repository, node 0.
type ID = uint32

// Tag distinguishes a behavior's timers from one another.
type Tag int

// TimerID names a scheduled timer so it can be cancelled. The zero value
// is never a valid timer.
type TimerID uint64

// Context is the interface a hosting runtime provides to a Behavior. All
// methods must be called only from within the behavior's own callbacks
// (Start, Receive, Timer); contexts are not safe for use from other
// goroutines.
type Context interface {
	// ID returns this node's radio identifier.
	ID() ID
	// Now returns the current virtual (or wall-clock-derived) time.
	Now() time.Duration
	// Broadcast transmits a packet to every radio neighbor. This is the
	// only transmission primitive — the medium is inherently broadcast,
	// which is exactly the property the paper's cluster keys exploit.
	Broadcast(pkt []byte)
	// SetTimer schedules a Timer(tag) callback after d and returns a
	// handle that can cancel it.
	SetTimer(d time.Duration, tag Tag) TimerID
	// CancelTimer cancels a pending timer; cancelling an already-fired or
	// unknown timer is a no-op.
	CancelTimer(id TimerID)
	// Rand returns this node's private deterministic random stream.
	Rand() *xrand.RNG
	// ChargeCipher charges encrypting or decrypting n bytes to this
	// node's energy meter. Radio costs are charged by the runtime;
	// behaviors report their own crypto work through these two methods.
	ChargeCipher(n int)
	// ChargeMAC charges MAC'ing or hashing n bytes to this node's meter.
	ChargeMAC(n int)
	// Keyring returns the host's shared table of keyed sealer state. It
	// lives as long as the deployment, and every behavior in that host
	// gets the same ring, so nodes holding the same key share one
	// derivation of it.
	Keyring() *crypt.Keyring
	// Scratch returns the working memory the host shares among the
	// behaviors it runs on the calling goroutine: the sealer scratch and
	// the frame buffers. Its contents are valid only inside the callback
	// that fetched it; the next callback, of this node or of any other
	// node the host runs on that goroutine, overwrites them. A host that
	// runs many behaviors on one goroutine hands out a NewSharedScratch,
	// so a broadcast its nodes all open is verified once.
	Scratch() *Scratch
	// Die removes this node from the network (battery depletion or
	// destruction). No further callbacks are delivered.
	Die()
}

// Scratch is the callback-scoped working memory a host lends the
// behaviors it runs on one goroutine. The embedded crypt.Scratch is the
// mutable half of every seal and open (AppendSeal, AppendOpen); the
// buffers are what a protocol marshals, seals and opens frames into.
// Because one Scratch serves every node of its goroutine, the buffers
// stay in cache however many nodes the host runs, and a node carries
// none of its own.
//
// Everything in it is valid only inside the callback that fetched it.
// A behavior that keeps bytes past its callback copies them out: the
// runtimes copy a broadcast packet before Broadcast returns, and the
// next callback on the same goroutine may overwrite every buffer.
type Scratch struct {
	crypt.Scratch

	SealBuf      []byte // sealed frame payload
	TxBuf        []byte // marshaled outgoing frame
	BodyBuf      []byte // marshaled outgoing frame body
	InnerBuf     []byte // marshaled end-to-end envelope of a reading
	InnerSealBuf []byte // sealed reading inside that envelope
	OpenBuf      []byte // opened (decrypted) frame body
	InnerOpenBuf []byte // opened end-to-end plaintext
	// TxReadings is the reading list of an outgoing DATA body.
	TxReadings []wire.Reading
	// RxData is the decoded incoming DATA body; its Inner slices alias
	// OpenBuf.
	RxData wire.Data
}

// NewSharedScratch returns a Scratch whose sealer half remembers the
// frames it has verified (crypt.NewSharedScratch), for a host that runs
// many behaviors on one goroutine.
func NewSharedScratch() *Scratch {
	return &Scratch{Scratch: *crypt.NewSharedScratch()}
}

// Behavior is a node's protocol state machine. Runtimes guarantee that the
// three callbacks are never invoked concurrently for the same node, so
// behaviors need no internal locking.
type Behavior interface {
	// Start runs once when the node boots, before any message delivery.
	Start(ctx Context)
	// Receive handles a packet overheard on the radio. from is the
	// link-layer sender. Behaviors must treat the packet as untrusted
	// bytes; all authentication happens in protocol code.
	Receive(ctx Context, from ID, pkt []byte)
	// Timer handles the expiry of a timer set with SetTimer.
	Timer(ctx Context, tag Tag)
}

// Rebooter is implemented by behaviors that support a warm restart after
// a crash: key material in stable storage survived, but every pending
// timer and in-flight exchange did not. Runtimes call Reboot instead of
// Start when reviving a crashed node whose behavior implements it; the
// behavior must re-arm whatever timers its current phase needs.
type Rebooter interface {
	Reboot(ctx Context)
}

// KeyStore holds one sensor node's key material, mirroring the paper's
// Section IV-A inventory: the node key Ki, the candidate cluster key Kci,
// the master key Km (erased after setup), the optional addition master KMC
// (erased after joining), the adopted cluster (CID, Kc), the set S of
// neighboring clusters' keys, and the revocation-chain verifier.
//
// All erasure is explicit and zeroizes the material, because the paper's
// security argument depends on captured nodes not containing Km or KMC.
type KeyStore struct {
	// NodeKey is Ki, shared with the base station, never erased.
	NodeKey crypt.Key
	// CandidateClusterKey is Kci, used only if the node elects itself
	// clusterhead.
	CandidateClusterKey crypt.Key
	// Master is Km during setup; zero after EraseMaster.
	Master crypt.Key
	// AddMaster is KMC on late-deployed nodes; zero otherwise/after use.
	AddMaster crypt.Key

	// CID is the adopted cluster's ID; valid once InCluster is true.
	CID uint32
	// ClusterKey is Kc for the adopted cluster.
	ClusterKey crypt.Key
	// InCluster reports whether the node has joined a cluster.
	InCluster bool

	// Neighbor cluster keys, keyed by CID (the paper's set S, minus the
	// node's own cluster key which is stored above).
	neighbors map[uint32]crypt.Key

	// Chain authenticates revocation commands (Section IV-D).
	Chain *crypt.ChainVerifier
}

// NewKeyStore returns a store with the given pre-deployment material.
func NewKeyStore(nodeKey, candidateClusterKey, master crypt.Key, chainCommit crypt.Key, maxSkip int) *KeyStore {
	return &KeyStore{
		NodeKey:             nodeKey,
		CandidateClusterKey: candidateClusterKey,
		Master:              master,
		neighbors:           make(map[uint32]crypt.Key),
		Chain:               crypt.NewChainVerifier(chainCommit, maxSkip),
	}
}

// JoinCluster records membership in cluster cid with key kc.
func (s *KeyStore) JoinCluster(cid uint32, kc crypt.Key) {
	s.CID = cid
	s.ClusterKey = kc
	s.InCluster = true
	// A node's own cluster never belongs in the neighbor set.
	delete(s.neighbors, cid)
}

// AddNeighbor stores a neighboring cluster's key. Storing the node's own
// cluster is a no-op.
func (s *KeyStore) AddNeighbor(cid uint32, kc crypt.Key) {
	if s.InCluster && cid == s.CID {
		return
	}
	s.neighbors[cid] = kc
}

// KeyFor returns the cluster key for cid — the node's own or a stored
// neighbor's — and whether it is known. This is the lookup a forwarder
// performs when Step 2 says "intermediate sensors will use the right key
// in their set S to authenticate the message."
func (s *KeyStore) KeyFor(cid uint32) (crypt.Key, bool) {
	if s.InCluster && cid == s.CID {
		return s.ClusterKey, true
	}
	k, ok := s.neighbors[cid]
	return k, ok
}

// HasNeighbor reports whether cid is a stored neighboring cluster.
func (s *KeyStore) HasNeighbor(cid uint32) bool {
	_, ok := s.neighbors[cid]
	return ok
}

// NeighborCIDs returns the stored neighboring cluster IDs in unspecified
// order.
func (s *KeyStore) NeighborCIDs() []uint32 {
	out := make([]uint32, 0, len(s.neighbors))
	for cid := range s.neighbors {
		out = append(out, cid)
	}
	return out
}

// ClusterKeyCount returns the total number of cluster keys held (own plus
// neighbors) — the quantity Figure 6 of the paper plots against density.
func (s *KeyStore) ClusterKeyCount() int {
	n := len(s.neighbors)
	if s.InCluster {
		n++
	}
	return n
}

// DropCluster deletes the key for cid (a revocation). If it is the node's
// own cluster the node is left clusterless; its neighbor entry is removed
// otherwise. It reports whether anything was deleted.
func (s *KeyStore) DropCluster(cid uint32) bool {
	if s.InCluster && cid == s.CID {
		s.ClusterKey.Zero()
		s.InCluster = false
		s.CID = 0
		return true
	}
	if k, ok := s.neighbors[cid]; ok {
		k.Zero()
		delete(s.neighbors, cid)
		return true
	}
	return false
}

// ReplaceKey installs a new key for cid, whether own cluster or neighbor.
// It reports whether cid was known.
func (s *KeyStore) ReplaceKey(cid uint32, k crypt.Key) bool {
	if s.InCluster && cid == s.CID {
		s.ClusterKey = k
		return true
	}
	if _, ok := s.neighbors[cid]; ok {
		s.neighbors[cid] = k
		return true
	}
	return false
}

// HashForwardAll applies the hash-based refresh Kc' = F(Kc) to every held
// cluster key — the paper's "renew the cluster keys by periodically
// hashing these keys at fixed time intervals".
func (s *KeyStore) HashForwardAll() {
	if s.InCluster {
		s.ClusterKey = crypt.HashForward(s.ClusterKey)
	}
	for cid, k := range s.neighbors {
		s.neighbors[cid] = crypt.HashForward(k)
	}
}

// EraseMaster destroys Km, as the protocol requires immediately after the
// key setup phase. It reports whether the key was present.
func (s *KeyStore) EraseMaster() bool {
	if s.Master.IsZero() {
		return false
	}
	s.Master.Zero()
	return true
}

// EraseAddMaster destroys KMC after a late join completes.
func (s *KeyStore) EraseAddMaster() bool {
	if s.AddMaster.IsZero() {
		return false
	}
	s.AddMaster.Zero()
	return true
}

// Snapshot returns a copy of every key currently held, labeled, for the
// adversary model: this is exactly what physical node capture reveals.
func (s *KeyStore) Snapshot() CapturedMaterial {
	cm := CapturedMaterial{
		NodeKey:   s.NodeKey,
		Master:    s.Master,
		AddMaster: s.AddMaster,
		InCluster: s.InCluster,
		CID:       s.CID,
		Clusters:  make(map[uint32]crypt.Key, len(s.neighbors)+1),
	}
	if s.InCluster {
		cm.Clusters[s.CID] = s.ClusterKey
	}
	for cid, k := range s.neighbors {
		cm.Clusters[cid] = k
	}
	return cm
}

// CapturedMaterial is everything an adversary learns by capturing a node
// (the paper's threat model assumes no tamper resistance, Section II).
type CapturedMaterial struct {
	NodeKey   crypt.Key
	Master    crypt.Key // zero if erased before capture, per the protocol
	AddMaster crypt.Key
	InCluster bool
	CID       uint32
	Clusters  map[uint32]crypt.Key // every cluster key held, by CID
}
