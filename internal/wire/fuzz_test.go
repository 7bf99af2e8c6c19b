package wire

import (
	"testing"
	"testing/quick"
)

// TestParseNeverPanicsOnRandomBytes drives every decoder with arbitrary
// byte strings: decoding must either succeed or return an error — never
// panic, never loop. (Every packet on the simulated radio goes through
// these paths with adversary-controlled content.)
func TestParseNeverPanicsOnRandomBytes(t *testing.T) {
	decoders := []struct {
		name string
		fn   func([]byte) error
	}{
		{"frame", func(b []byte) error { _, err := ParseFrame(b); return err }},
		{"hello", func(b []byte) error { _, err := UnmarshalHello(b); return err }},
		{"linkadvert", func(b []byte) error { _, err := UnmarshalLinkAdvert(b); return err }},
		{"inner", func(b []byte) error { _, err := UnmarshalInner(b); return err }},
		{"data", func(b []byte) error { var d Data; return UnmarshalDataInto(&d, b) }},
		{"beacon", func(b []byte) error { _, err := UnmarshalBeacon(b); return err }},
		{"revoke", func(b []byte) error { _, err := UnmarshalRevoke(b); return err }},
		{"joinreq", func(b []byte) error { _, err := UnmarshalJoinReq(b); return err }},
		{"joinresp", func(b []byte) error { _, err := UnmarshalJoinResp(b); return err }},
		{"refresh", func(b []byte) error { _, err := UnmarshalRefresh(b); return err }},
		{"keepalive", func(b []byte) error { _, err := UnmarshalKeepAlive(b); return err }},
		{"repair", func(b []byte) error { _, err := UnmarshalRepair(b); return err }},
	}
	for _, dec := range decoders {
		dec := dec
		f := func(b []byte) bool {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s panicked on %x: %v", dec.name, b, r)
				}
			}()
			_ = dec.fn(b)
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("%s: %v", dec.name, err)
		}
	}
}

// TestFrameReencodeStable checks that parse-then-marshal is the identity
// on valid frames (no normalization surprises that could break MAC
// verification of relayed packets).
func TestFrameReencodeStable(t *testing.T) {
	f := func(cid uint32, nonce uint64, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		orig := &Frame{Type: TData, CID: cid, Nonce: nonce, Payload: payload}
		pkt, err := orig.Marshal()
		if err != nil {
			return false
		}
		parsed, err := ParseFrame(pkt)
		if err != nil {
			return false
		}
		re, err := parsed.Marshal()
		if err != nil {
			return false
		}
		if len(re) != len(pkt) {
			return false
		}
		for i := range re {
			if re[i] != pkt[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRevokeHugeCIDCountRejected: a forged Revoke claiming more CIDs than
// the payload carries must fail cleanly.
func TestRevokeHugeCIDCountRejected(t *testing.T) {
	valid := (&Revoke{Index: 1, ChainKey: [16]byte{1}, CIDs: []uint32{2}}).Marshal()
	// The CID count lives right after index(4) + key(16).
	forged := append([]byte(nil), valid...)
	forged[20] = 0xFF
	forged[21] = 0xFF
	if _, err := UnmarshalRevoke(forged); err == nil {
		t.Fatal("revoke with forged element count accepted")
	}
}
