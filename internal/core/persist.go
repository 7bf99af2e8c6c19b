package core

import (
	"repro/internal/node"
)

// This file is the durable-state seam for long-lived deployments
// (internal/fleet): everything a sensor needs to survive a full OS
// process restart — not just the in-memory crash/reboot of the fault
// injector — serialized to a flat JSON-able struct. The restore path
// produces a Sensor ready to be hosted with live.Config.WarmBoot, which
// routes the first callback through Reboot (node.Rebooter) instead of
// Start, exactly like the simulator's warm-reboot fault path.
//
// What is deliberately NOT persisted:
//
//   - dedup memory: lost duplicates are re-suppressed upstream by the
//     transport layer's per-link windows; a rebooted incarnation also
//     starts a fresh transport boot epoch, so peers reset their windows.
//   - prevKeys (one-epoch-old refresh keys): only meaningful mid
//     changeover; fleet deployments run with RefreshPeriod off.
//   - pending retransmission state: volatile by the same argument the
//     in-memory Reboot makes ("every pending timer and in-flight
//     exchange did not [survive]").
//
// Erased key material stays erased across the round trip — a node that
// destroyed Km before crashing cannot recover it from its state file.

// SensorState is the serializable protocol state of one Sensor.
type SensorState struct {
	ID         node.ID `json:"id"`
	Phase      Phase   `json:"phase"`
	IsHead     bool    `json:"is_head"`
	Hop        uint16  `json:"hop"`
	Round      uint32  `json:"round"`
	HeadID     node.ID `json:"head_id"`
	TxNonce    uint32  `json:"tx_nonce"`
	ReadingSeq uint32  `json:"reading_seq"`
	ReadingCtr uint64  `json:"reading_ctr"`
	// Mobile records mobile provisioning (Authority.MobileMaterialFor).
	// The flag cannot be re-derived from the restored KeyStore — after
	// setup a mobile node looks like a late joiner mid-join (KMC held,
	// Km erased) — and it gates KMC retention across handoffs, so it is
	// durable state, not a statistic. Handoff counters and the
	// in-progress-handoff marker stay volatile, like all repair state.
	Mobile bool               `json:"mobile,omitempty"`
	Epochs map[uint32]uint32  `json:"epochs,omitempty"`
	Keys   node.KeyStoreState `json:"keys"`

	// BS is present only for the base station.
	BS *BaseStationState `json:"bs,omitempty"`
}

// BaseStationState is the extra durable state of the base station: the
// per-origin Step-1 counters (losing them would make the freshness
// window reject post-restart readings as replays), the revocation-chain
// cursor (re-revealing a consumed chain key would be rejected by every
// node), and the beacon round.
type BaseStationState struct {
	Counters  map[node.ID]uint64 `json:"counters,omitempty"`
	NextChain int                `json:"next_chain"`
	Round     uint32             `json:"round"`
}

// ExportState captures the sensor's durable protocol state. Call it only
// from the node's own callback thread (e.g. through the runtime's Do
// hook) or after the hosting runtime stopped.
func (s *Sensor) ExportState() *SensorState {
	st := &SensorState{
		ID:         s.id,
		Phase:      s.phase,
		IsHead:     s.isHead,
		Hop:        s.hop,
		Round:      s.round,
		HeadID:     s.headID,
		TxNonce:    s.txNonce,
		ReadingSeq: s.readingSeq,
		ReadingCtr: s.readingCtr,
		Mobile:     s.mobile,
		Keys:       s.ks.Export(),
	}
	if len(s.meta) > 0 {
		st.Epochs = make(map[uint32]uint32, len(s.meta))
		for _, m := range s.meta {
			st.Epochs[m.cid] = m.epoch
		}
	}
	if s.bs != nil {
		bs := &BaseStationState{
			NextChain: s.bs.nextChain,
			Round:     s.bs.round,
		}
		if len(s.bs.counters) > 0 {
			bs.Counters = make(map[node.ID]uint64, len(s.bs.counters))
			for id, c := range s.bs.counters {
				bs.Counters[id] = c
			}
		}
		st.BS = bs
	}
	return st
}

// restoreCommon rebuilds the runtime-independent sensor fields.
func restoreCommon(cfg Config, st *SensorState) *Sensor {
	cfg = cfg.withDefaults()
	s := &Sensor{
		cfg:        cfg,
		ks:         node.RestoreKeyStore(st.Keys),
		id:         st.ID,
		phase:      st.Phase,
		isHead:     st.IsHead,
		hop:        st.Hop,
		round:      st.Round,
		headID:     st.HeadID,
		txNonce:    st.TxNonce,
		readingSeq: st.ReadingSeq,
		readingCtr: st.ReadingCtr,
		mobile:     st.Mobile,
		om:         newCoreMetrics(cfg.Obs.Registry()),
	}
	for cid, e := range st.Epochs {
		s.setEpoch(cid, e)
	}
	return s
}

// RestoreSensor rebuilds a non-base-station sensor from persisted state.
// Host the result with a warm boot (Reboot, not Start) so it re-arms
// what its phase needs instead of re-running setup.
func RestoreSensor(cfg Config, st *SensorState) *Sensor {
	return restoreCommon(cfg, st)
}

// RestoreBaseStation rebuilds the base station from persisted state. The
// authority is re-derived by the caller (deterministically from the
// deployment seed) rather than persisted: it holds every node key, so
// keeping it out of the state file shrinks what a stolen file reveals to
// the keys the base station's own Material already implies.
func RestoreBaseStation(cfg Config, st *SensorState, auth *Authority) *Sensor {
	s := restoreCommon(cfg, st)
	s.bs = &bsState{
		auth:     auth,
		counters: make(map[node.ID]uint64),
	}
	if st.BS != nil {
		s.bs.nextChain = st.BS.NextChain
		s.bs.round = st.BS.Round
		for id, c := range st.BS.Counters {
			s.bs.counters[id] = c
		}
	}
	return s
}
