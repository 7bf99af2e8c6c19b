package core

import (
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/wire"
)

// This file implements the protocol's self-healing extensions: clusterhead
// keep-alives with local repair elections (members of a cluster whose head
// crashed re-elect a successor under the current cluster key, the same
// "within clusters, i.e. not allow new clusters to be created" constraint
// the paper places on re-keying), bounded setup retransmissions with
// exponential backoff, and a warm-reboot path for crashed nodes. All of it
// is gated behind zero-default Config knobs, so the baseline protocol's
// behavior — including its exact sequence of random draws — is untouched
// when the knobs are off.

// --- clusterhead keep-alives and repair elections ---

// armKeepAlive schedules the next keep-alive tick if the feature is on and
// no tick is already pending. One chain per node serves both roles: a head
// broadcasts, a member checks for silence.
func (s *Sensor) armKeepAlive(ctx node.Context) {
	if s.cfg.KeepAlivePeriod <= 0 || s.kaLoop {
		return
	}
	s.kaLoop = true
	ctx.SetTimer(s.cfg.KeepAlivePeriod, tagKeepAlive)
}

// keepAliveTick runs once per KeepAlivePeriod. The current head broadcasts
// a KEEPALIVE sealed under the cluster key; everyone else checks how long
// the head has been silent and starts a repair election after
// KeepAliveMisses full periods without one.
func (s *Sensor) keepAliveTick(ctx node.Context) {
	s.kaLoop = false
	if s.phase != PhaseOperational || !s.ks.InCluster {
		return
	}
	if s.headID == s.id {
		sc := ctx.Scratch()
		sc.BodyBuf = (&wire.KeepAlive{
			CID:    s.ks.CID,
			HeadID: uint32(s.id),
			Epoch:  s.epochOf(s.ks.CID),
		}).AppendMarshal(sc.BodyBuf[:0])
		ctx.Broadcast(s.sealFrame(ctx, wire.TKeepAlive, s.ks.CID, s.ks.ClusterKey, sc.BodyBuf))
	} else if !s.repairing {
		silent := ctx.Now() - s.lastKeepAlive
		if silent > KeepAliveMisses*s.cfg.KeepAlivePeriod {
			if s.cfg.HandoffEnabled && s.mobile && !s.ks.AddMaster.IsZero() {
				// A mobile member cannot tell "my head crashed" from "I
				// moved away"; handing off is safe either way, while
				// claiming headship of a cluster it may no longer reach
				// would strand the old cluster key on a departed node.
				s.startHandoff(ctx)
			} else {
				s.startRepair(ctx)
			}
		}
	}
	s.armKeepAlive(ctx)
}

// startRepair begins a repair election: the member delays its headship
// claim by an exponentially distributed time (mirroring the setup
// election's randomized HELLO delays) so that in the common case exactly
// one member claims and the rest stand down on hearing it.
func (s *Sensor) startRepair(ctx node.Context) {
	s.repairing = true
	s.repairStartAt = ctx.Now()
	s.cfg.Obs.Emit(ctx.Now(), obs.KindRepairStart, int(s.id), s.ks.CID, "")
	delay := time.Duration(ctx.Rand().Exp(float64(repairMeanDelay)))
	s.repairTimer = ctx.SetTimer(delay, tagRepairElect)
}

// claimHeadship fires when a repair candidacy delay expires with no other
// claim heard: the member takes over headship and announces it under the
// current cluster key. The cluster's identity (CID) and key are unchanged
// — membership, neighbor links, and in-flight traffic all survive — and no
// erased key is ever needed.
func (s *Sensor) claimHeadship(ctx node.Context) {
	if !s.repairing || s.phase != PhaseOperational || !s.ks.InCluster {
		return
	}
	s.repairing = false
	s.headID = s.id
	s.repaired = true
	sc := ctx.Scratch()
	sc.BodyBuf = (&wire.Repair{
		CID:     s.ks.CID,
		NewHead: uint32(s.id),
		Epoch:   s.epochOf(s.ks.CID),
	}).AppendMarshal(sc.BodyBuf[:0])
	ctx.Broadcast(s.sealFrame(ctx, wire.TRepair, s.ks.CID, s.ks.ClusterKey, sc.BodyBuf))
	s.om.repairs.Inc()
	s.om.repairTime.Observe((ctx.Now() - s.repairStartAt).Seconds())
	s.cfg.Obs.Emit(ctx.Now(), obs.KindRepair, int(s.id), s.ks.CID, "")
	if s.OnRepaired != nil {
		s.OnRepaired(s.ks.CID, s.id, ctx.Now())
	}
	if s.cfg.RekeyOnRepair {
		// Rotate the cluster key the moment the takeover is announced,
		// so key copies carried off by departed members — a handoff that
		// raced this election, or a captured straggler — stop
		// authenticating against the repaired cluster's traffic.
		s.StartClusterRefresh(ctx)
	}
}

// onKeepAlive handles a head's liveness heartbeat.
func (s *Sensor) onKeepAlive(ctx node.Context, f *wire.Frame) {
	if s.phase != PhaseOperational || !s.ks.InCluster || f.CID != s.ks.CID {
		return
	}
	body, ok := s.openWithEpochFallback(ctx, f)
	if !ok {
		return
	}
	ka, err := wire.UnmarshalKeepAlive(body)
	if err != nil || ka.CID != f.CID {
		return
	}
	s.adoptHead(ctx, node.ID(ka.HeadID))
}

// onRepair handles a headship claim after a head crash.
func (s *Sensor) onRepair(ctx node.Context, f *wire.Frame) {
	if s.phase != PhaseOperational || !s.ks.InCluster || f.CID != s.ks.CID {
		return
	}
	body, ok := s.openWithEpochFallback(ctx, f)
	if !ok {
		return
	}
	rp, err := wire.UnmarshalRepair(body)
	if err != nil || rp.CID != f.CID {
		return
	}
	s.adoptHead(ctx, node.ID(rp.NewHead))
}

// adoptHead processes a headship assertion (KEEPALIVE or REPAIR) that
// authenticated under the cluster key. Competing claimants — possible when
// the member set is not fully meshed, or when a crashed original head
// reboots after a successor was elected — converge by lowest-ID-wins: a
// node holding the role ignores assertions from higher IDs and demotes
// itself on hearing a lower one. Because the cluster key never changed,
// a transient dual-head window is harmless: both heads' traffic
// authenticates identically.
func (s *Sensor) adoptHead(ctx node.Context, claimant node.ID) {
	if s.headID == s.id && claimant > s.id {
		return // we hold the role and win the tie-break
	}
	if s.repairing {
		s.repairing = false
		ctx.CancelTimer(s.repairTimer)
	}
	s.headID = claimant
	s.lastKeepAlive = ctx.Now()
}

// --- bounded setup retransmissions ---

// setupBackoff is setupRetryBase << attempt plus a uniform jitter of up to
// one base, so simultaneous senders don't retry in lockstep.
func (s *Sensor) setupBackoff(ctx node.Context, attempt int) time.Duration {
	base := setupRetryBase
	return base<<attempt + time.Duration(ctx.Rand().Uint64n(uint64(base)))
}

// armHelloRetry schedules the next HELLO retransmission if the budget
// allows.
func (s *Sensor) armHelloRetry(ctx node.Context) {
	if s.cfg.SetupRetries <= 0 || s.helloRetries >= s.cfg.SetupRetries {
		return
	}
	ctx.SetTimer(s.setupBackoff(ctx, s.helloRetries), tagHelloRetry)
}

// helloRetry re-broadcasts a head's HELLO so neighbors that lost the first
// copy to a burst still join rather than electing themselves at T1. Only
// useful while the election window is open and Km is held.
func (s *Sensor) helloRetry(ctx node.Context) {
	if !s.isHead || s.ks.Master.IsZero() || ctx.Now() >= s.cfg.ClusterPhaseEnd {
		return // past T1 every node is decided; a retry would be noise
	}
	s.helloRetries++
	sc := ctx.Scratch()
	sc.BodyBuf = (&wire.Hello{HeadID: uint32(s.id), ClusterKey: s.ks.ClusterKey}).AppendMarshal(sc.BodyBuf[:0])
	ctx.Broadcast(s.sealFrame(ctx, wire.THello, 0, s.ks.Master, sc.BodyBuf))
	s.om.setupTx.Inc()
	s.om.setupRetx.Inc()
	s.cfg.Obs.Emit(ctx.Now(), obs.KindRetransmit, int(s.id), uint32(s.id), "hello")
	s.armHelloRetry(ctx)
}

// armLinkRetry schedules the next LINK-ADVERT retransmission if the budget
// allows.
func (s *Sensor) armLinkRetry(ctx node.Context) {
	if s.cfg.SetupRetries <= 0 || s.linkRetries >= s.cfg.SetupRetries {
		return
	}
	ctx.SetTimer(s.setupBackoff(ctx, s.linkRetries), tagLinkRetry)
}

// linkRetry re-broadcasts the LINK-ADVERT while receivers can still verify
// it (Km is erased network-wide at T2).
func (s *Sensor) linkRetry(ctx node.Context) {
	if !s.ks.InCluster || s.ks.Master.IsZero() || ctx.Now() >= s.cfg.OperationalAt {
		return
	}
	s.linkRetries++
	sc := ctx.Scratch()
	sc.BodyBuf = (&wire.LinkAdvert{CID: s.ks.CID, ClusterKey: s.ks.ClusterKey}).AppendMarshal(sc.BodyBuf[:0])
	ctx.Broadcast(s.sealFrame(ctx, wire.TLinkAdvert, 0, s.ks.Master, sc.BodyBuf))
	s.om.setupTx.Inc()
	s.om.setupRetx.Inc()
	s.cfg.Obs.Emit(ctx.Now(), obs.KindRetransmit, int(s.id), s.ks.CID, "link")
	s.armLinkRetry(ctx)
}

// --- warm reboot ---

// Reboot implements node.Rebooter: a warm restart after a crash. Key
// material and protocol state in stable storage (the KeyStore, epochs,
// dedup memory, Step-1 counters) survived; every pending timer and
// in-flight exchange did not. Re-arm what the current phase needs.
// Crucially, a node that erased Km before crashing does NOT recover it —
// erasure is irreversible by design, and repair elections work without it.
func (s *Sensor) Reboot(ctx node.Context) {
	// Volatile retry and election state died with the RAM.
	s.pending = s.pending[:0]
	s.pendingJoinResp = false
	s.repairing = false
	s.kaLoop = false
	switch s.phase {
	case PhaseOperational:
		s.catchUpEpochs(ctx.Now())
		s.armRefreshTimer(ctx)
		s.armBeacon(ctx)
		s.lastKeepAlive = ctx.Now()
		s.armKeepAlive(ctx)
	case PhaseJoining:
		// The join window's timer is gone; run a fresh attempt. The
		// attempt counter survived, so the overall budget still bounds
		// the procedure.
		s.startJoin(ctx)
	case PhaseElection, PhaseDecided:
		s.rebootDuringSetup(ctx)
	case PhaseFailed:
		// Terminal; nothing to re-arm.
	}
}

// rebootDuringSetup revives a node that crashed before the operational
// transition. The absolute phase boundaries (T1, T2) are configuration,
// not lost state, so the node re-derives its remaining schedule from the
// current time.
func (s *Sensor) rebootDuringSetup(ctx node.Context) {
	now := ctx.Now()
	if now >= s.cfg.OperationalAt {
		// The node slept through the rest of setup. Km must still be
		// erased — the network-wide erasure deadline passed — and an
		// undecided node is left clusterless: it cannot self-elect,
		// because nobody holds Km to verify its HELLO anymore.
		if s.ks.InCluster {
			s.enterOperational(ctx)
		} else {
			if !s.ks.Master.IsZero() {
				s.om.kmErasures.Inc()
				s.cfg.Obs.Emit(ctx.Now(), obs.KindKmErase, int(s.id), 0, "clusterless")
			}
			s.ks.EraseMaster()
			s.dropSealers() // as in enterOperational: drop setup-era AEAD state
			s.phase = PhaseFailed
		}
		return
	}
	ctx.SetTimer(s.cfg.OperationalAt-now, tagOperational)
	if s.phase == PhaseElection && !s.ks.InCluster {
		// Still undecided: redraw a candidacy delay within what remains
		// of the election window.
		delay := time.Duration(ctx.Rand().Exp(float64(s.cfg.HelloMeanDelay)))
		if maxDelay := s.cfg.ClusterPhaseEnd - time.Millisecond - now; delay > maxDelay {
			delay = maxDelay
		}
		if delay < 0 {
			delay = 0
		}
		s.helloTimer = ctx.SetTimer(delay, tagHello)
	}
	// Redraw the LINK-ADVERT slot; if the crash spanned the original
	// slot, advertise as soon as possible (sendLinkAdvert itself guards
	// on cluster membership and Km possession).
	linkAt := s.cfg.ClusterPhaseEnd +
		time.Duration(ctx.Rand().Uint64n(uint64(s.cfg.LinkSpread)))
	if linkAt < now {
		linkAt = now
	}
	ctx.SetTimer(linkAt-now, tagLinkAdvert)
}
