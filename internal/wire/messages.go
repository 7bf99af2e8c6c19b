package wire

import "repro/internal/crypt"

// Hello is the plaintext body of a clusterhead announcement (Section
// IV-B.1). The whole body is sealed under the master key Km before
// transmission: E_Km(ID_i | Kc_i | MAC_Km(ID_i | Kc_i)) in the paper's
// notation (the MAC is supplied by the seal).
type Hello struct {
	HeadID     uint32
	ClusterKey crypt.Key
}

// Marshal encodes the body.
func (m *Hello) Marshal() []byte { return m.AppendMarshal(nil) }

// AppendMarshal appends the encoded body to dst and returns the
// extended slice; reusable scratch with spare capacity makes the call
// allocation-free.
func (m *Hello) AppendMarshal(dst []byte) []byte {
	w := writer{buf: dst}
	w.u32(m.HeadID)
	w.key(m.ClusterKey)
	return w.buf
}

// UnmarshalHello decodes a Hello body.
func UnmarshalHello(b []byte) (*Hello, error) {
	r := reader{buf: b}
	m := &Hello{HeadID: r.u32(), ClusterKey: r.key()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// LinkAdvert is the plaintext body of the secure-link-establishment
// broadcast (Section IV-B.2): every node re-advertises its cluster's
// (CID, Kc) under Km so neighbors in adjacent clusters can store the key.
type LinkAdvert struct {
	CID        uint32
	ClusterKey crypt.Key
}

// Marshal encodes the body.
func (m *LinkAdvert) Marshal() []byte { return m.AppendMarshal(nil) }

// AppendMarshal appends the encoded body to dst and returns the
// extended slice; reusable scratch with spare capacity makes the call
// allocation-free.
func (m *LinkAdvert) AppendMarshal(dst []byte) []byte {
	w := writer{buf: dst}
	w.u32(m.CID)
	w.key(m.ClusterKey)
	return w.buf
}

// UnmarshalLinkAdvert decodes a LinkAdvert body.
func UnmarshalLinkAdvert(b []byte) (*LinkAdvert, error) {
	r := reader{buf: b}
	m := &LinkAdvert{CID: r.u32(), ClusterKey: r.key()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Inner is c1 of Section IV-C Step 1: the end-to-end protected sensor
// reading, decipherable only by the base station. Sealed is the crypt.Seal
// of the reading under the source's node key Ki with the shared counter as
// nonce; Src and Counter travel with it so the base station can select Ki
// and check its counter window. When Step 1 is disabled for data-fusion
// deployments, Sealed carries the plaintext reading and Counter is 0 (the
// paper: "if we are interested in data fusion processing then Step 1 should
// be omitted ... c1 ... is simply the data D").
type Inner struct {
	Src       uint32
	Counter   uint64
	Encrypted bool
	Sealed    []byte
}

// Marshal encodes the body.
func (m *Inner) Marshal() []byte { return m.AppendMarshal(nil) }

// AppendMarshal appends the encoded body to dst and returns the
// extended slice; reusable scratch with spare capacity makes the call
// allocation-free.
func (m *Inner) AppendMarshal(dst []byte) []byte {
	w := writer{buf: dst}
	w.u32(m.Src)
	w.u64(m.Counter)
	if m.Encrypted {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.bytes(m.Sealed)
	return w.buf
}

// UnmarshalInner decodes an Inner body.
func UnmarshalInner(b []byte) (*Inner, error) {
	r := reader{buf: b}
	m := &Inner{Src: r.u32(), Counter: r.u64()}
	switch r.u8() {
	case 0:
	case 1:
		m.Encrypted = true
	default:
		if r.err == nil {
			return nil, ErrBadType
		}
	}
	m.Sealed = r.bytes()
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalInnerInto decodes an Inner body into m without allocating:
// m.Sealed aliases b. The base station's delivery hot path uses it;
// callers that retain the envelope past the radio callback must copy
// Sealed (or use UnmarshalInner, which copies).
func UnmarshalInnerInto(m *Inner, b []byte) error {
	r := reader{buf: b}
	m.Src = r.u32()
	m.Counter = r.u64()
	m.Encrypted = false
	switch r.u8() {
	case 0:
	case 1:
		m.Encrypted = true
	default:
		if r.err == nil {
			return ErrBadType
		}
	}
	n := int(r.u16())
	m.Sealed = r.take(n)
	return r.done()
}

// Data is y2 of Section IV-C Step 2 before sealing: the hop-by-hop
// envelope a forwarder broadcasts once per hop. Tau is the paper's
// freshness timestamp τ; SrcCID is the sender's cluster ID, carried
// redundantly *inside* the encryption as the paper specifies (the outer
// frame's CID is authenticated-but-visible); Hop carries the forwarder's
// gradient height for the routing substrate. All three apply to the
// frame as a whole. Readings holds one or more per-origin tuples
// (docs/THROUGHPUT.md): one for a lone reading, several when the sender
// batches.
//
// Encoding: be64(τ) ‖ be32(srcCID) ‖ be16(hop), then the tuples
// be32(origin) ‖ be32(seq) ‖ len16+inner back to back until the body
// ends. There is no count field: the outer seal authenticates the body
// length, so a one-reading body is exactly 24 bytes plus its inner.
type Data struct {
	Tau      int64 // sender's clock at (re-)encryption time, ns of virtual time
	SrcCID   uint32
	Hop      uint16 // forwarder's hop distance to the base station
	Readings []Reading
}

// Reading is one (origin, seq, inner) tuple inside a Data body. Origin
// and Seq identify the end-to-end flow for duplicate suppression; Inner
// is the origin's Step-1 envelope, independently sealed under its node
// key with the origin bound into its AAD, so sharing one cluster-key
// seal among several readings leaves per-origin authenticity intact.
type Reading struct {
	Origin uint32 // ID of the node whose reading this is
	Seq    uint32 // per-origin sequence number
	Inner  []byte // marshaled Inner (c1)
}

// Marshal encodes the body.
func (m *Data) Marshal() []byte { return m.AppendMarshal(nil) }

// AppendMarshal appends the encoded body to dst and returns the
// extended slice; reusable scratch with spare capacity makes the call
// allocation-free.
func (m *Data) AppendMarshal(dst []byte) []byte {
	w := writer{buf: dst}
	w.i64(m.Tau)
	w.u32(m.SrcCID)
	w.u16(m.Hop)
	for i := range m.Readings {
		w.u32(m.Readings[i].Origin)
		w.u32(m.Readings[i].Seq)
		w.bytes(m.Readings[i].Inner)
	}
	return w.buf
}

// UnmarshalDataInto decodes a Data body into m, reusing m.Readings'
// capacity; with warmed scratch the call allocates nothing. The Inner
// slices alias b, so they are only valid as long as the caller's buffer
// is — the forwarding hot path copies what it keeps (batch slab, retry
// queue, delivery arena). A body that ends after its header, or inside
// a tuple, is ErrTruncated.
func UnmarshalDataInto(m *Data, b []byte) error {
	r := reader{buf: b}
	m.Tau = r.i64()
	m.SrcCID = r.u32()
	m.Hop = r.u16()
	m.Readings = m.Readings[:0]
	for r.err == nil && len(r.buf) > 0 {
		origin := r.u32()
		seq := r.u32()
		inner := r.take(int(r.u16()))
		m.Readings = append(m.Readings, Reading{Origin: origin, Seq: seq, Inner: inner})
	}
	if len(m.Readings) == 0 {
		return ErrTruncated
	}
	return r.err
}

// Beacon is the routing-gradient announcement flooded from the base
// station after key setup. Hop is the sender's distance from the base
// station; receivers adopt Hop+1. Sealed hop-by-hop under cluster keys
// like any other traffic.
type Beacon struct {
	Round uint32 // beacon epoch, so stale gradients are replaced
	Hop   uint16
}

// Marshal encodes the body.
func (m *Beacon) Marshal() []byte { return m.AppendMarshal(nil) }

// AppendMarshal appends the encoded body to dst and returns the
// extended slice; reusable scratch with spare capacity makes the call
// allocation-free.
func (m *Beacon) AppendMarshal(dst []byte) []byte {
	w := writer{buf: dst}
	w.u32(m.Round)
	w.u16(m.Hop)
	return w.buf
}

// UnmarshalBeacon decodes a Beacon body.
func UnmarshalBeacon(b []byte) (*Beacon, error) {
	r := reader{buf: b}
	m := &Beacon{Round: r.u32(), Hop: r.u16()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Revoke is the base station's eviction command (Section IV-D). ChainKey
// is the next one-way-chain value K_l; Index its position (so verifiers
// know how far they may have to hash); CIDs lists the revoked clusters
// whose keys every node must delete. The command is flooded; each node
// verifies the chain key against its stored commitment before acting, so
// no other authentication is needed — exactly the paper's scheme.
type Revoke struct {
	Index    uint32
	ChainKey crypt.Key
	CIDs     []uint32
}

// Marshal encodes the body.
func (m *Revoke) Marshal() []byte { return m.AppendMarshal(nil) }

// AppendMarshal appends the encoded body to dst and returns the
// extended slice; reusable scratch with spare capacity makes the call
// allocation-free.
func (m *Revoke) AppendMarshal(dst []byte) []byte {
	w := writer{buf: dst}
	w.u32(m.Index)
	w.key(m.ChainKey)
	w.u16(uint16(len(m.CIDs)))
	for _, c := range m.CIDs {
		w.u32(c)
	}
	return w.buf
}

// UnmarshalRevoke decodes a Revoke body.
func UnmarshalRevoke(b []byte) (*Revoke, error) {
	r := reader{buf: b}
	m := &Revoke{Index: r.u32(), ChainKey: r.key()}
	n := int(r.u16())
	for i := 0; i < n && r.err == nil; i++ {
		m.CIDs = append(m.CIDs, r.u32())
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// JoinReq is a late-deployed node's hello (Section IV-E): "Every new node
// transmits a hello message to its neighbors indicating its will to become
// a member of some existing cluster. The message contains the ID of the
// new node." It is necessarily plaintext — the new node shares no key with
// its neighbors yet; authentication happens on the response path.
type JoinReq struct {
	NodeID uint32
}

// Marshal encodes the body.
func (m *JoinReq) Marshal() []byte { return m.AppendMarshal(nil) }

// AppendMarshal appends the encoded body to dst and returns the
// extended slice; reusable scratch with spare capacity makes the call
// allocation-free.
func (m *JoinReq) AppendMarshal(dst []byte) []byte {
	w := writer{buf: dst}
	w.u32(m.NodeID)
	return w.buf
}

// UnmarshalJoinReq decodes a JoinReq body.
func UnmarshalJoinReq(b []byte) (*JoinReq, error) {
	r := reader{buf: b}
	m := &JoinReq{NodeID: r.u32()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// JoinResp answers a JoinReq with "CID, MAC_Kc(CID)" (Section IV-E). The
// new node derives Kc = F(KMC, CID) and verifies the tag, defeating the
// impersonation attack the paper describes (an adversary advertising fake
// cluster IDs to poison the newcomer's key table). Epoch extends the paper:
// it counts completed key refreshes of the cluster, so a newcomer derives
// the *current* key by hash-forwarding F(KMC, CID) Epoch times; the tag is
// computed under the current key, so a wrong or lying epoch fails
// verification.
type JoinResp struct {
	CID   uint32
	Epoch uint32
	Tag   [crypt.MACSize]byte
}

// Marshal encodes the body.
func (m *JoinResp) Marshal() []byte { return m.AppendMarshal(nil) }

// AppendMarshal appends the encoded body to dst and returns the
// extended slice; reusable scratch with spare capacity makes the call
// allocation-free.
func (m *JoinResp) AppendMarshal(dst []byte) []byte {
	w := writer{buf: dst}
	w.u32(m.CID)
	w.u32(m.Epoch)
	w.buf = append(w.buf, m.Tag[:]...)
	return w.buf
}

// UnmarshalJoinResp decodes a JoinResp body.
func UnmarshalJoinResp(b []byte) (*JoinResp, error) {
	r := reader{buf: b}
	m := &JoinResp{CID: r.u32(), Epoch: r.u32()}
	copy(m.Tag[:], r.take(crypt.MACSize))
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Refresh carries a new cluster key during within-cluster key refresh,
// sealed under the old cluster key (Section IV-C: "the current cluster key
// may be used by the nodes instead [of Km] ... The message will contain
// the new cluster key, created by a secure key generation algorithm
// embedded in each node"). Epoch orders refreshes so replays of old
// refresh messages are rejected.
type Refresh struct {
	CID    uint32
	Epoch  uint32
	NewKey crypt.Key
}

// Marshal encodes the body.
func (m *Refresh) Marshal() []byte { return m.AppendMarshal(nil) }

// AppendMarshal appends the encoded body to dst and returns the
// extended slice; reusable scratch with spare capacity makes the call
// allocation-free.
func (m *Refresh) AppendMarshal(dst []byte) []byte {
	w := writer{buf: dst}
	w.u32(m.CID)
	w.u32(m.Epoch)
	w.key(m.NewKey)
	return w.buf
}

// UnmarshalRefresh decodes a Refresh body.
func UnmarshalRefresh(b []byte) (*Refresh, error) {
	r := reader{buf: b}
	m := &Refresh{CID: r.u32(), Epoch: r.u32(), NewKey: r.key()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// KeepAlive is the clusterhead's periodic liveness heartbeat, sealed under
// the current cluster key. Members that stop hearing it conclude the head
// has died (energy depletion or capture-and-removal, the failure modes
// Sections IV-D/IV-E motivate maintenance with) and start a local repair
// election. HeadID lets members that missed a repair claim learn the
// current head lazily; Epoch pins the sender's refresh epoch so a member
// whose keys drifted notices immediately.
type KeepAlive struct {
	CID    uint32
	HeadID uint32
	Epoch  uint32
}

// Marshal encodes the body.
func (m *KeepAlive) Marshal() []byte { return m.AppendMarshal(nil) }

// AppendMarshal appends the encoded body to dst and returns the
// extended slice; reusable scratch with spare capacity makes the call
// allocation-free.
func (m *KeepAlive) AppendMarshal(dst []byte) []byte {
	w := writer{buf: dst}
	w.u32(m.CID)
	w.u32(m.HeadID)
	w.u32(m.Epoch)
	return w.buf
}

// UnmarshalKeepAlive decodes a KeepAlive body.
func UnmarshalKeepAlive(b []byte) (*KeepAlive, error) {
	r := reader{buf: b}
	m := &KeepAlive{CID: r.u32(), HeadID: r.u32(), Epoch: r.u32()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Repair is a member's claim to headship of its own cluster after the
// current head crashed — the repair counterpart of HELLO, protected by the
// current cluster key instead of the long-erased Km (the paper's first
// refresh variant: the key setup step repeats "within clusters, i.e. not
// allow new clusters to be created"; the CID and cluster key survive, only
// the head role moves).
type Repair struct {
	CID     uint32
	NewHead uint32
	Epoch   uint32
}

// Marshal encodes the body.
func (m *Repair) Marshal() []byte { return m.AppendMarshal(nil) }

// AppendMarshal appends the encoded body to dst and returns the
// extended slice; reusable scratch with spare capacity makes the call
// allocation-free.
func (m *Repair) AppendMarshal(dst []byte) []byte {
	w := writer{buf: dst}
	w.u32(m.CID)
	w.u32(m.NewHead)
	w.u32(m.Epoch)
	return w.buf
}

// UnmarshalRepair decodes a Repair body.
func UnmarshalRepair(b []byte) (*Repair, error) {
	r := reader{buf: b}
	m := &Repair{CID: r.u32(), NewHead: r.u32(), Epoch: r.u32()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}
