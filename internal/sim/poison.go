package sim

import "repro/internal/wire"

// With Config.PoisonRecycled, or in a build with the scratchpoison tag
// (poison_on.go), every shard overwrites its host scratch
// (node.Scratch) with junk after each behavior callback and each
// coordinator closure. A frame, trace record or retransmission that
// still referred to the scratch past its callback would then change the
// run's output. transport.Lab runs on this engine, so the tag covers its
// nodes too; it exists so that tests which pin exact outputs run
// unchanged with the poison on:
//
//	go test -tags scratchpoison -run 'Golden|ShardSmoke|DeployAutoShards' ./internal/core/ ./internal/transport/

// junkScratch overwrites every buffer of the shard's scratch up to its
// capacity, and every reading it holds, with junk.
func (s *shard) junkScratch() {
	sc := s.scratch
	if sc == nil {
		return
	}
	for _, b := range [...][]byte{sc.SealBuf, sc.TxBuf, sc.BodyBuf, sc.InnerBuf, sc.InnerSealBuf, sc.OpenBuf, sc.InnerOpenBuf} {
		poison(b)
	}
	junk := []byte("poisoned scratch")
	for _, rs := range [...][]wire.Reading{sc.TxReadings, sc.RxData.Readings} {
		rs = rs[:cap(rs)]
		for i := range rs {
			rs[i] = wire.Reading{Origin: 0xDBDBDBDB, Seq: 0xDBDBDBDB, Inner: junk}
		}
	}
	sc.RxData = wire.Data{Tau: -1, SrcCID: 0xDBDBDBDB, Hop: 0xDBDB, Readings: sc.RxData.Readings}
}
