package core

import (
	"time"

	"repro/internal/crypt"
	"repro/internal/node"
	"repro/internal/wire"
)

// This file implements the protocol's maintenance machinery: key refresh
// (Section IV-C, last paragraphs), eviction of compromised clusters
// through hash-chain-authenticated revocation (Section IV-D), and
// authenticated addition of new nodes (Section IV-E).

// --- key refresh ---

// HashRefresh applies the hash-based refresh Kc' = F(Kc) to every cluster
// key the node holds — the paper's preferred variant ("A better way,
// however, which makes this kind of attack useless, is to refresh the keys
// by hashing instead of letting nodes generate new ones"). Because F is
// public and deterministic, no message is exchanged; all nodes apply it at
// the agreed interval. Call through the runtime's Do hook on every node at
// the same epoch boundary.
func (s *Sensor) HashRefresh(ctx node.Context) {
	if s.phase != PhaseOperational {
		return
	}
	// Keep the previous keys for one changeover window.
	if s.ks.InCluster {
		s.setPrevKey(s.ks.CID, s.ks.ClusterKey)
	}
	for _, cid := range s.ks.NeighborCIDs() {
		if k, ok := s.ks.KeyFor(cid); ok {
			s.setPrevKey(cid, k)
		}
	}
	s.ks.HashForwardAll()
	for i := range s.meta {
		s.meta[i].epoch++
	}
	_ = ctx // symmetry with the messaging variant; no radio traffic
}

// StartClusterRefresh begins the re-keying refresh variant for the node's
// own cluster: it generates a fresh cluster key and broadcasts it sealed
// under the old one. Per the paper's hardening, the refresh is constrained
// "within clusters, i.e. not allow new clusters to be created", so only
// the cluster's current head initiates — the original clusterhead (the
// node whose ID equals the CID), or its locally re-elected successor
// after a repair. It reports whether a refresh was initiated.
func (s *Sensor) StartClusterRefresh(ctx node.Context) bool {
	if s.phase != PhaseOperational || !s.ks.InCluster || s.headID != s.id {
		return false
	}
	// "The new cluster key, created by a secure key generation algorithm
	// embedded in each node": derive from the old key and local entropy.
	var nonce [8]byte
	r := ctx.Rand().Uint64()
	for i := range nonce {
		nonce[i] = byte(r >> (8 * i))
	}
	oldKey := s.ks.ClusterKey
	newKey := crypt.DeriveKey(oldKey, crypt.LabelRefresh, nonce[:])
	epoch := s.epochOf(s.ks.CID) + 1

	sc := ctx.Scratch()
	sc.BodyBuf = (&wire.Refresh{CID: s.ks.CID, Epoch: epoch, NewKey: newKey}).AppendMarshal(sc.BodyBuf[:0])
	pkt := s.sealFrame(ctx, wire.TRefresh, s.ks.CID, oldKey, sc.BodyBuf)
	s.applyRefresh(s.ks.CID, epoch, newKey)
	ctx.Broadcast(pkt)
	return true
}

// onRefresh installs a new cluster key announced under the old one.
// Cluster members relay the announcement once so it crosses the cluster's
// two-hop diameter and reaches border nodes of neighboring clusters.
func (s *Sensor) onRefresh(ctx node.Context, f *wire.Frame, pkt []byte) {
	if s.phase != PhaseOperational {
		return
	}
	// Must authenticate under the *old* key for that cluster.
	key, known := s.ks.KeyFor(f.CID)
	if !known {
		return
	}
	body, ok := s.openFrame(ctx, f, key)
	if !ok {
		// Possibly already refreshed via another path; nothing to do.
		return
	}
	r, err := wire.UnmarshalRefresh(body)
	if err != nil || r.CID != f.CID {
		return
	}
	if r.Epoch != s.epochOf(f.CID)+1 {
		return // stale or replayed refresh
	}
	isOwn := s.ks.InCluster && f.CID == s.ks.CID
	s.applyRefresh(f.CID, r.Epoch, r.NewKey)
	if isOwn {
		// Relay the original packet (still sealed under the old key) so
		// two-hop members and adjacent clusters' border nodes hear it.
		// Broadcast copies per receiver before returning, so relaying the
		// runtime-owned buffer directly is safe — no defensive copy.
		ctx.Broadcast(pkt)
	}
}

// applyRefresh rotates the stored key for cid, retaining the old one for
// the changeover window.
func (s *Sensor) applyRefresh(cid, epoch uint32, newKey crypt.Key) {
	if old, ok := s.ks.KeyFor(cid); ok {
		s.setPrevKey(cid, old)
	}
	s.ks.ReplaceKey(cid, newKey)
	s.setEpoch(cid, epoch)
}

// --- eviction (Section IV-D) ---

// RevokeClusters issues a revocation command for the given cluster IDs
// from the base station, authenticated by the next key of the one-way hash
// chain, and floods it. Call through the runtime's Do hook on the base
// station. It reports whether a command was issued (the chain may be
// exhausted).
func (s *Sensor) RevokeClusters(ctx node.Context, cids []uint32) bool {
	if s.bs == nil || s.phase != PhaseOperational {
		return false
	}
	idx := s.bs.nextChain + 1
	chainKey, err := s.bs.auth.Chain().Reveal(idx)
	if err != nil {
		return false
	}
	s.bs.nextChain = idx
	sc := ctx.Scratch()
	sc.BodyBuf = (&wire.Revoke{Index: uint32(idx), ChainKey: chainKey, CIDs: cids}).AppendMarshal(sc.BodyBuf[:0])
	pkt, merr := (&wire.Frame{Type: wire.TRevoke, Payload: sc.BodyBuf}).AppendMarshal(sc.TxBuf[:0])
	if merr != nil {
		return false
	}
	sc.TxBuf = pkt
	// The base station applies its own command: it stops accepting
	// traffic relayed under revoked clusters' keys.
	for _, cid := range cids {
		s.dropCluster(cid)
		s.clearPrevKey(cid)
	}
	ctx.Broadcast(pkt)
	return true
}

// onRevoke verifies a revocation command against the stored chain
// commitment, deletes the revoked clusters' keys, and re-floods the
// command once. The chain verifier's monotone commitment makes replays
// fail automatically, which also serves as flood deduplication.
func (s *Sensor) onRevoke(ctx node.Context, f *wire.Frame, pkt []byte) {
	rv, err := wire.UnmarshalRevoke(f.Payload)
	if err != nil {
		return
	}
	ctx.ChargeMAC(crypt.KeySize * maxChainSkip) // chain hashing work
	if _, ok := s.ks.Chain.Accept(rv.ChainKey); !ok {
		return
	}
	if len(rv.CIDs) == 0 {
		// An authenticated command that revokes nothing is the authority's
		// network-wide refresh order (the threshold committee's CmdRefresh):
		// the chain key proves its provenance, the rotation itself is the
		// public hash-forward every node applies locally.
		s.HashRefresh(ctx)
		ctx.Broadcast(pkt)
		return
	}
	for _, cid := range rv.CIDs {
		s.dropCluster(cid)
		s.dropMeta(cid)
	}
	if !s.ks.InCluster {
		// Evicted from the own cluster: retire the ack-gated retry state
		// and any queued-but-unflushed batch now. A stale tagDataRetry or
		// tagBatchFlush timer may still fire, but it must find nothing —
		// retransmitting a pending reading would re-seal it under whatever
		// key state the revoked node has left, exactly what the eviction
		// was meant to stop (the tick-side phase guards are the second
		// line of defense; see TestRevokedSensorAbandonsPendingRetries).
		s.retirePending()
		s.dropBatchQueue()
	}
	// Re-flood so the command crosses the network even though revoked
	// clusters' nodes may refuse to cooperate. Broadcast copies per
	// receiver before returning, so no defensive copy is needed.
	ctx.Broadcast(pkt)
}

// Evicted reports whether this node has lost its own cluster to a
// revocation (it can no longer originate or relay traffic).
func (s *Sensor) Evicted() bool {
	return s.phase == PhaseOperational && !s.ks.InCluster
}

// --- node addition (Section IV-E) ---

// startJoin begins the late-deployment procedure: broadcast a JOIN-REQ and
// collect authenticated cluster-ID responses for a window.
func (s *Sensor) startJoin(ctx node.Context) {
	s.phase = PhaseJoining
	s.joinAttempts++
	sc := ctx.Scratch()
	sc.BodyBuf = (&wire.JoinReq{NodeID: uint32(s.id)}).AppendMarshal(sc.BodyBuf[:0])
	pkt, err := (&wire.Frame{Type: wire.TJoinReq, Payload: sc.BodyBuf}).AppendMarshal(sc.TxBuf[:0])
	if err != nil {
		return
	}
	sc.TxBuf = pkt
	ctx.Broadcast(pkt)
	window := joinWindow
	if s.cfg.SetupRetries > 0 && s.joinAttempts > 1 {
		// Exponential backoff across attempts: each retry doubles the
		// collection window (capped at 8x) so a joiner in a lossy patch
		// gives responses more air time instead of hammering requests.
		shift := s.joinAttempts - 1
		if shift > 3 {
			shift = 3
		}
		window <<= shift
	}
	ctx.SetTimer(window, tagJoinDone)
}

// onJoinReq schedules an authenticated response to a newcomer: "Nodes
// receiving this message will respond with the cluster id they belong to,
// authenticated using their cluster key Kc."
func (s *Sensor) onJoinReq(ctx node.Context, f *wire.Frame) {
	if s.phase != PhaseOperational || !s.ks.InCluster {
		return
	}
	if _, err := wire.UnmarshalJoinReq(f.Payload); err != nil {
		return
	}
	if s.pendingJoinResp {
		return // one response covers bursts of requests
	}
	s.pendingJoinResp = true
	delay := time.Duration(ctx.Rand().Uint64n(uint64(joinRespDelayMax)))
	ctx.SetTimer(delay, tagJoinResp)
}

// sendJoinResp broadcasts "CID, MAC_Kc(CID)" (extended with the refresh
// epoch, MAC'd under the *current* key so a lying epoch fails
// verification).
func (s *Sensor) sendJoinResp(ctx node.Context) {
	s.pendingJoinResp = false
	if s.phase != PhaseOperational || !s.ks.InCluster {
		return
	}
	epoch := s.epochOf(s.ks.CID)
	tag := joinRespTag(s.ks.ClusterKey, s.ks.CID, epoch)
	ctx.ChargeMAC(8)
	sc := ctx.Scratch()
	sc.BodyBuf = (&wire.JoinResp{CID: s.ks.CID, Epoch: epoch, Tag: tag}).AppendMarshal(sc.BodyBuf[:0])
	pkt, err := (&wire.Frame{Type: wire.TJoinResp, Payload: sc.BodyBuf}).AppendMarshal(sc.TxBuf[:0])
	if err != nil {
		return
	}
	sc.TxBuf = pkt
	ctx.Broadcast(pkt)
}

// catchUpEpochs advances a late joiner onto the global hash-refresh
// schedule. A JOIN-RESP answered just before an epoch boundary can reach
// the joiner just after it, leaving the stored keys one rotation behind;
// since the hash schedule is public (boundaries at OperationalAt +
// k*RefreshPeriod) and the rotation is the public function F, the joiner
// can roll any learned key forward to the current global epoch without
// further communication. Only meaningful in RefreshHash mode; re-keying
// epochs are per-cluster and caught up through Refresh messages.
func (s *Sensor) catchUpEpochs(now time.Duration) {
	if s.cfg.RefreshPeriod <= 0 || s.cfg.RefreshMode != RefreshHash {
		return
	}
	// The joiner's clock and the network's virtual clock agree in both
	// runtimes (Now is global), so boundary counting is exact.
	elapsed := now - s.cfg.OperationalAt
	if elapsed < 0 {
		return
	}
	expected := uint32(elapsed / s.cfg.RefreshPeriod)
	catchUp := func(cid uint32) {
		for s.epochOf(cid) < expected {
			if k, ok := s.ks.KeyFor(cid); ok {
				s.setPrevKey(cid, k)
				s.ks.ReplaceKey(cid, crypt.HashForward(k))
			}
			s.setEpoch(cid, s.epochOf(cid)+1)
		}
	}
	if s.ks.InCluster {
		catchUp(s.ks.CID)
	}
	for _, cid := range s.ks.NeighborCIDs() {
		catchUp(cid)
	}
}

// joinRespTag authenticates (CID, epoch) under the cluster key.
func joinRespTag(kc crypt.Key, cid, epoch uint32) [crypt.MACSize]byte {
	msg := []byte{
		byte(cid >> 24), byte(cid >> 16), byte(cid >> 8), byte(cid),
		byte(epoch >> 24), byte(epoch >> 16), byte(epoch >> 8), byte(epoch),
	}
	return crypt.MAC(kc, msg)
}

// onJoinResp lets a joining node derive and verify a cluster key:
// Kc = F(KMC, CID), hash-forwarded Epoch times, checked against the MAC.
// "A new node receiving such a collection of cluster id's will consider
// itself a member of the first such cluster while the rest will be the
// neighboring ones."
func (s *Sensor) onJoinResp(ctx node.Context, f *wire.Frame) {
	if s.phase != PhaseJoining || s.ks.AddMaster.IsZero() {
		return
	}
	resp, err := wire.UnmarshalJoinResp(f.Payload)
	if err != nil {
		return
	}
	if _, known := s.ks.KeyFor(resp.CID); known {
		return // already learned this cluster
	}
	key := crypt.DeriveID(s.ks.AddMaster, crypt.LabelCluster, resp.CID)
	for i := uint32(0); i < resp.Epoch; i++ {
		key = crypt.HashForward(key)
	}
	ctx.ChargeMAC(8)
	want := joinRespTag(key, resp.CID, resp.Epoch)
	if want != resp.Tag {
		return // impersonation attempt: fake CID fails against F(KMC, CID)
	}
	if !s.ks.InCluster {
		s.ks.JoinCluster(resp.CID, key)
		// The original head's ID is the CID by construction; a repair
		// election will correct this view if that head is gone.
		s.headID = node.ID(resp.CID)
	} else {
		s.ks.AddNeighbor(resp.CID, key)
	}
	s.setEpoch(resp.CID, resp.Epoch)
}

// finishJoinWindow closes a join attempt: on success the node erases KMC
// and becomes operational; otherwise it retries up to maxJoinAttempts.
// Mobile nodes retain KMC on success — repeated handoffs need it — the
// capture-surface tradeoff Authority.MobileMaterialFor documents.
func (s *Sensor) finishJoinWindow(ctx node.Context) {
	if s.phase != PhaseJoining {
		return
	}
	if s.ks.InCluster {
		if !s.mobile {
			s.ks.EraseAddMaster()
		}
		s.phase = PhaseOperational
		// Join the network-wide refresh schedule: catch up any epoch
		// boundary that passed while JOIN-RESPs were in flight, then arm
		// the next boundary's timer.
		s.catchUpEpochs(ctx.Now())
		s.armRefreshTimer(ctx)
		s.lastKeepAlive = ctx.Now()
		s.armKeepAlive(ctx)
		if s.inHandoff {
			s.finishHandoff(ctx)
		}
		return
	}
	if s.joinAttempts >= maxJoinAttempts {
		// A mobile node that exhausted its budget between clusters stays
		// failed: the bound keeps runs quiescent, and the delivery
		// metrics charge the loss to the scheme honestly.
		s.phase = PhaseFailed
		s.inHandoff = false
		return
	}
	s.startJoin(ctx)
}
