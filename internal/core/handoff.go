package core

// Cluster handoff for mobile nodes (docs/MOBILITY.md). A member that
// stops hearing its clusterhead's keep-alives after moving out of range
// leaves its cluster — erasing the cluster key and every piece of
// bookkeeping its old position justified — and re-joins whatever
// clusters surround the new position through the Section IV-E addition
// path, using the addition master KMC it retained. Everything here is
// gated behind Config.HandoffEnabled plus the mobile provisioning flag,
// so static deployments never reach these paths and stay byte-identical
// to the baseline protocol.
//
// The trigger is member-side only: a mobile clusterhead that drifts
// away keeps heading its (now remote) cluster identity while its old
// members repair-elect a successor under the unchanged cluster key.
// RekeyOnRepair closes the resulting key overlap by rotating the
// repaired cluster's key at takeover.

import (
	"repro/internal/node"
	"repro/internal/obs"
)

// startHandoff leaves the current cluster and begins a fresh join
// attempt at the node's new position. Called from the keep-alive tick
// when silence exceeds the miss budget on a mobile, handoff-enabled
// member.
func (s *Sensor) startHandoff(ctx node.Context) {
	s.handoffCID = s.ks.CID
	s.handoffStart = ctx.Now()
	s.inHandoff = true
	s.cfg.Obs.Emit(ctx.Now(), obs.KindHandoffStart, int(s.id), s.handoffCID, "")
	s.leaveCluster()
	// A fresh handoff gets the full join budget; attempts spent joining
	// the previous cluster are history.
	s.joinAttempts = 0
	s.startJoin(ctx)
}

// leaveCluster erases the node's own cluster key, every neighbor
// cluster key, and all per-cluster bookkeeping. The departing node must
// carry nothing that lets it (or its captor) read the abandoned
// neighborhood's traffic — the acceptance bar the stale-key tests pin.
// Volatile forwarding state is retired exactly as eviction retires it:
// a stale retry or batch-flush timer may still fire, but it must find
// nothing to retransmit.
func (s *Sensor) leaveCluster() {
	own := s.ks.CID
	s.dropCluster(own)
	s.dropMeta(own)
	for _, cid := range s.ks.NeighborCIDs() {
		s.dropCluster(cid)
		s.dropMeta(cid)
	}
	s.headID = 0
	s.repairing = false
	s.retirePending()
	s.dropBatchQueue()
}

// finishHandoff records a completed handoff once the join window closed
// with a cluster adopted.
func (s *Sensor) finishHandoff(ctx node.Context) {
	s.inHandoff = false
	s.handoffs++
	s.om.handoffs.Inc()
	s.om.handoffTime.Observe((ctx.Now() - s.handoffStart).Seconds())
	s.cfg.Obs.Emit(ctx.Now(), obs.KindHandoff, int(s.id), s.ks.CID, "")
	if s.OnHandoff != nil {
		s.OnHandoff(s.handoffCID, s.ks.CID, s.handoffStart, ctx.Now())
	}
}
