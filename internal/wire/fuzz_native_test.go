package wire

import (
	"bytes"
	"testing"
)

// Native fuzz targets for the wire codecs (`go test -fuzz=FuzzParseFrame
// ./internal/wire`). They assert the same contract as the quick-check
// sweeps — decoding adversary-controlled bytes never panics — plus frame
// re-encode stability, but with coverage-guided input generation and a
// persistent corpus. CI runs each for a few seconds as a smoke pass.

// seedFrames returns one valid marshaled frame per frame type.
func seedFrames() [][]byte {
	var out [][]byte
	for typ := THello; typ <= TDataBatch; typ++ {
		f := &Frame{Type: typ, CID: 7, Nonce: 99, Payload: []byte{1, 2, 3, 4}}
		pkt, err := f.Marshal()
		if err != nil {
			panic(err)
		}
		out = append(out, pkt)
	}
	return out
}

// FuzzParseFrame drives the outer-frame decoder: any input must parse
// cleanly or error, and whatever parses must re-marshal to the identical
// bytes (relayed packets are MAC'd over the exact encoding).
func FuzzParseFrame(f *testing.F) {
	for _, pkt := range seedFrames() {
		f.Add(pkt)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(TData)})
	f.Fuzz(func(t *testing.T, b []byte) {
		parsed, err := ParseFrame(b)
		if err != nil {
			return
		}
		re, err := parsed.Marshal()
		if err != nil {
			t.Fatalf("parsed frame failed to re-marshal: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("re-encode not stable:\nin:  %x\nout: %x", b, re)
		}
	})
}

// FuzzUnmarshalBodies drives every sealed-body decoder off one input.
// The selector byte picks the codec so a single corpus covers them all.
func FuzzUnmarshalBodies(f *testing.F) {
	f.Add(byte(0), (&Hello{HeadID: 3}).Marshal())
	f.Add(byte(1), (&LinkAdvert{CID: 2}).Marshal())
	f.Add(byte(2), (&Inner{Src: 4, Counter: 9, Encrypted: true, Sealed: []byte{5}}).Marshal())
	f.Add(byte(3), (&Data{Tau: 1, SrcCID: 2, Readings: []Reading{{Origin: 3, Seq: 4, Inner: []byte{6}}}}).Marshal())
	f.Add(byte(3), threeReadings().Marshal())
	f.Add(byte(4), (&Beacon{Round: 2, Hop: 1}).Marshal())
	f.Add(byte(5), (&Revoke{Index: 1, CIDs: []uint32{2, 3}}).Marshal())
	f.Add(byte(6), (&JoinReq{NodeID: 8}).Marshal())
	f.Add(byte(7), (&JoinResp{CID: 9}).Marshal())
	f.Add(byte(8), (&Refresh{CID: 1, Epoch: 2}).Marshal())
	f.Add(byte(9), (&KeepAlive{CID: 1, HeadID: 1, Epoch: 0}).Marshal())
	f.Add(byte(10), (&Repair{CID: 1, NewHead: 2, Epoch: 0}).Marshal())
	f.Add(byte(11), (&AuthorityMsg{Kind: AKDeal, Session: 1, From: 2, Body: []byte{7}}).Marshal())
	f.Fuzz(func(t *testing.T, sel byte, b []byte) {
		var d Data
		switch sel % 12 {
		case 0:
			_, _ = UnmarshalHello(b)
		case 1:
			_, _ = UnmarshalLinkAdvert(b)
		case 2:
			_, _ = UnmarshalInner(b)
		case 3:
			_ = UnmarshalDataInto(&d, b)
		case 4:
			_, _ = UnmarshalBeacon(b)
		case 5:
			_, _ = UnmarshalRevoke(b)
		case 6:
			_, _ = UnmarshalJoinReq(b)
		case 7:
			_, _ = UnmarshalJoinResp(b)
		case 8:
			_, _ = UnmarshalRefresh(b)
		case 9:
			_, _ = UnmarshalKeepAlive(b)
		case 10:
			_, _ = UnmarshalRepair(b)
		case 11:
			_, _ = UnmarshalAuthorityMsg(b)
		}
	})
}

// threeReadings is a three-tuple Data body, one tuple with an empty
// inner.
func threeReadings() *Data {
	return &Data{Tau: 7, SrcCID: 3, Hop: 2, Readings: []Reading{
		{Origin: 9, Seq: 1, Inner: []byte{1, 2, 3}},
		{Origin: 10, Seq: 2, Inner: nil},
		{Origin: 11, Seq: 3, Inner: []byte{4}},
	}}
}

// FuzzData drives the DATA codec, the data plane's envelope for one
// reading or many (docs/THROUGHPUT.md): beyond no-panic, the decoder
// must be a bijection on accepted inputs — whatever parses re-marshals
// to the identical bytes, because forwarders re-seal the exact encoding
// hop by hop and the outer MAC covers it.
func FuzzData(f *testing.F) {
	f.Add((&Data{Tau: 1, SrcCID: 2, Hop: 5, Readings: []Reading{{Origin: 3, Seq: 4, Inner: []byte{6}}}}).Marshal())
	f.Add(threeReadings().Marshal())
	f.Add((&Data{}).Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var m Data
		if err := UnmarshalDataInto(&m, b); err != nil {
			return
		}
		re := m.Marshal()
		if !bytes.Equal(re, b) {
			t.Fatalf("re-encode not stable:\nin:  %x\nout: %x", b, re)
		}
	})
}

// FuzzAuthorityCommand drives the threshold-command codec. The command's
// exact encoding is what the authority quorum's Schnorr signature covers,
// so beyond no-panic the decoder must be a bijection on accepted inputs:
// whatever parses re-marshals to the identical bytes, or a forged
// re-encoding could carry a signature computed over different bytes.
func FuzzAuthorityCommand(f *testing.F) {
	f.Add((&AuthorityCommand{Kind: CmdEvict, Session: 1, Index: 3, CIDs: []uint32{2, 9}}).Marshal())
	f.Add((&AuthorityCommand{Kind: CmdRefresh, Session: 2, Index: 4}).Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		cmd, err := UnmarshalAuthorityCommand(b)
		if err != nil {
			return
		}
		re := cmd.Marshal()
		if !bytes.Equal(re, b) {
			t.Fatalf("re-encode not stable:\nin:  %x\nout: %x", b, re)
		}
	})
}
