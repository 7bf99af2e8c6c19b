package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/crypt"
)

func TestFrameRoundtrip(t *testing.T) {
	f := func(typ byte, cid uint32, nonce uint64, payload []byte) bool {
		ty := Type(typ%8) + 1
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		in := &Frame{Type: ty, CID: cid, Nonce: nonce, Payload: payload}
		pkt, err := in.Marshal()
		if err != nil {
			return false
		}
		out, err := ParseFrame(pkt)
		if err != nil {
			return false
		}
		return out.Type == in.Type && out.CID == in.CID && out.Nonce == in.Nonce &&
			bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseFrameErrors(t *testing.T) {
	if _, err := ParseFrame(nil); err != ErrTruncated {
		t.Fatalf("nil packet: %v", err)
	}
	if _, err := ParseFrame(make([]byte, frameHeader-1)); err != ErrTruncated {
		t.Fatalf("short packet: %v", err)
	}
	// Unknown type.
	pkt, err := (&Frame{Type: THello, Payload: []byte("x")}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pkt[0] = 0
	if _, err := ParseFrame(pkt); err != ErrBadType {
		t.Fatalf("type 0: %v", err)
	}
	pkt[0] = 200
	if _, err := ParseFrame(pkt); err != ErrBadType {
		t.Fatalf("type 200: %v", err)
	}
	// Declared payload longer than packet.
	pkt[0] = byte(THello)
	pkt[13], pkt[14] = 0xff, 0xff
	if _, err := ParseFrame(pkt); err != ErrTruncated {
		t.Fatalf("overlong declared payload: %v", err)
	}
}

func TestMarshalRejectsHugePayload(t *testing.T) {
	f := &Frame{Type: TData, Payload: make([]byte, MaxPayload+1)}
	if _, err := f.Marshal(); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestTypeString(t *testing.T) {
	names := map[Type]string{
		THello: "HELLO", TLinkAdvert: "LINK-ADVERT", TData: "DATA",
		TBeacon: "BEACON", TRevoke: "REVOKE", TJoinReq: "JOIN-REQ",
		TJoinResp: "JOIN-RESP", TRefresh: "REFRESH", TDataBatch: "DATA-BATCH",
	}
	for ty, want := range names {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
	if got := Type(99).String(); got != "TYPE(99)" {
		t.Errorf("unknown type string = %q", got)
	}
}

func key16(b byte) crypt.Key {
	var k crypt.Key
	for i := range k {
		k[i] = b ^ byte(i*3)
	}
	return k
}

func TestHelloRoundtrip(t *testing.T) {
	in := &Hello{HeadID: 1234, ClusterKey: key16(7)}
	out, err := UnmarshalHello(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip: %+v != %+v", out, in)
	}
}

func TestLinkAdvertRoundtrip(t *testing.T) {
	in := &LinkAdvert{CID: 999, ClusterKey: key16(9)}
	out, err := UnmarshalLinkAdvert(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip: %+v != %+v", out, in)
	}
}

func TestInnerRoundtrip(t *testing.T) {
	f := func(src uint32, ctr uint64, enc bool, sealed []byte) bool {
		if len(sealed) > 1024 {
			sealed = sealed[:1024]
		}
		in := &Inner{Src: src, Counter: ctr, Encrypted: enc, Sealed: sealed}
		out, err := UnmarshalInner(in.Marshal())
		if err != nil {
			return false
		}
		return out.Src == in.Src && out.Counter == in.Counter &&
			out.Encrypted == in.Encrypted && bytes.Equal(out.Sealed, in.Sealed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInnerRejectsBadFlag(t *testing.T) {
	in := &Inner{Src: 1, Counter: 2, Encrypted: true, Sealed: []byte("abc")}
	b := in.Marshal()
	b[12] = 2 // the Encrypted flag byte
	if _, err := UnmarshalInner(b); err == nil {
		t.Fatal("bad flag byte accepted")
	}
}

// sameData reports whether two Data bodies carry the same header and
// readings (nil and empty Inner compare equal).
func sameData(a, b *Data) bool {
	if a.Tau != b.Tau || a.SrcCID != b.SrcCID || a.Hop != b.Hop || len(a.Readings) != len(b.Readings) {
		return false
	}
	for i := range a.Readings {
		x, y := a.Readings[i], b.Readings[i]
		if x.Origin != y.Origin || x.Seq != y.Seq || !bytes.Equal(x.Inner, y.Inner) {
			return false
		}
	}
	return true
}

// checkDataRoundtrip encodes each body, checks its length against the
// layout (14 header bytes, then 10 bytes of framing per tuple plus the
// tuple's inner), and decodes it back.
func checkDataRoundtrip(t *testing.T, cases map[string]*Data) {
	t.Helper()
	for name, in := range cases {
		body := in.Marshal()
		want := 14
		for _, rd := range in.Readings {
			want += 10 + len(rd.Inner)
		}
		if len(body) != want {
			t.Fatalf("%s: body is %d bytes, want %d", name, len(body), want)
		}
		var out Data
		if err := UnmarshalDataInto(&out, body); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameData(&out, in) {
			t.Fatalf("%s: roundtrip differs", name)
		}
	}
}

func TestDataRoundtrip(t *testing.T) {
	checkDataRoundtrip(t, map[string]*Data{
		"one":           {Tau: 1_000_000, SrcCID: 13, Hop: 5, Readings: []Reading{{Origin: 14, Seq: 1, Inner: []byte("c1")}}},
		"one empty":     {Tau: -9, SrcCID: 7, Readings: []Reading{{Origin: 1, Seq: 4294967295}}},
		"one max inner": {Tau: 3, SrcCID: 1 << 31, Hop: 65535, Readings: []Reading{{Origin: 2, Seq: 3, Inner: make([]byte, MaxPayload)}}},
	})
}

// A DATA body carrying several readings under one header.
func TestDataBatchRoundtrip(t *testing.T) {
	many := make([]Reading, 300)
	for i := range many {
		many[i] = Reading{Origin: uint32(i), Seq: uint32(7 * i), Inner: bytes.Repeat([]byte{byte(i)}, i%41)}
	}
	checkDataRoundtrip(t, map[string]*Data{
		"two": {Tau: 5, SrcCID: 6, Hop: 9, Readings: []Reading{
			{Origin: 10, Seq: 100, Inner: []byte("reading-10")},
			{Origin: 11, Seq: 0, Inner: nil},
		}},
		"three": {Tau: 5, SrcCID: 6, Hop: 9, Readings: []Reading{
			{Origin: 10, Seq: 100, Inner: []byte("reading-10")},
			{Origin: 11, Seq: 4294967295, Inner: nil},
			{Origin: 12, Seq: 0, Inner: []byte("reading-12")},
		}},
		"many": {Tau: 8, SrcCID: 2, Hop: 1, Readings: many},
	})
}

// The tuples run to the end of the body, so a body must hold at least
// one whole tuple and nothing after its last one.
func TestDataRejectsMalformedBody(t *testing.T) {
	body := (&Data{Tau: 1, SrcCID: 2, Hop: 3, Readings: []Reading{{Origin: 4, Seq: 5, Inner: []byte("abc")}}}).Marshal()
	cases := map[string][]byte{
		"no readings":   body[:14],
		"partial tuple": body[:len(body)-1],
	}
	for n := 1; n < 10; n++ {
		cases[fmt.Sprintf("%d trailing bytes", n)] = append(append([]byte(nil), body...), make([]byte, n)...)
	}
	for name, b := range cases {
		var d Data
		if err := UnmarshalDataInto(&d, b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBeaconRoundtrip(t *testing.T) {
	in := &Beacon{Round: 3, Hop: 17}
	out, err := UnmarshalBeacon(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip: %+v != %+v", out, in)
	}
}

func TestRevokeRoundtrip(t *testing.T) {
	cases := []*Revoke{
		{Index: 1, ChainKey: key16(3), CIDs: nil},
		{Index: 2, ChainKey: key16(4), CIDs: []uint32{10}},
		{Index: 77, ChainKey: key16(5), CIDs: []uint32{1, 2, 3, 4, 5, 1 << 30}},
	}
	for _, in := range cases {
		out, err := UnmarshalRevoke(in.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if out.Index != in.Index || !out.ChainKey.Equal(in.ChainKey) {
			t.Fatalf("roundtrip header: %+v != %+v", out, in)
		}
		if len(out.CIDs) != len(in.CIDs) {
			t.Fatalf("CIDs length %d != %d", len(out.CIDs), len(in.CIDs))
		}
		for i := range in.CIDs {
			if out.CIDs[i] != in.CIDs[i] {
				t.Fatalf("CIDs %v != %v", out.CIDs, in.CIDs)
			}
		}
	}
}

func TestJoinReqRoundtrip(t *testing.T) {
	in := &JoinReq{NodeID: 424242}
	out, err := UnmarshalJoinReq(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip: %+v != %+v", out, in)
	}
}

func TestJoinRespRoundtrip(t *testing.T) {
	in := &JoinResp{CID: 13}
	for i := range in.Tag {
		in.Tag[i] = byte(i * 7)
	}
	out, err := UnmarshalJoinResp(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip: %+v != %+v", out, in)
	}
}

func TestRefreshRoundtrip(t *testing.T) {
	in := &Refresh{CID: 5, Epoch: 9, NewKey: key16(11)}
	out, err := UnmarshalRefresh(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip: %+v != %+v", out, in)
	}
}

// Every Unmarshal must reject truncation at any byte boundary and reject
// trailing garbage. Drive all codecs through one table. The one
// exception is a Data body cut at a tuple boundary: that is a valid
// shorter reading list by design (the outer seal authenticates the
// length), so only header-only and mid-tuple cuts must fail.
func TestUnmarshalRejectsTruncationAndTrailing(t *testing.T) {
	dataFirst := 14 + 10 + len("efgh") // header, then the first tuple
	full := map[string][]byte{
		"hello":      (&Hello{HeadID: 1, ClusterKey: key16(1)}).Marshal(),
		"linkadvert": (&LinkAdvert{CID: 2, ClusterKey: key16(2)}).Marshal(),
		"inner":      (&Inner{Src: 3, Counter: 4, Encrypted: true, Sealed: []byte("abcd")}).Marshal(),
		"data": (&Data{Tau: 5, SrcCID: 6, Hop: 9, Readings: []Reading{
			{Origin: 7, Seq: 8, Inner: []byte("efgh")},
			{Origin: 10, Seq: 11, Inner: []byte("mn")},
		}}).Marshal(),
		"beacon":   (&Beacon{Round: 1, Hop: 2}).Marshal(),
		"revoke":   (&Revoke{Index: 1, ChainKey: key16(3), CIDs: []uint32{4, 5}}).Marshal(),
		"joinreq":  (&JoinReq{NodeID: 6}).Marshal(),
		"joinresp": (&JoinResp{CID: 7}).Marshal(),
		"refresh":  (&Refresh{CID: 8, Epoch: 9, NewKey: key16(4)}).Marshal(),
	}
	decode := map[string]func([]byte) error{
		"hello":      func(b []byte) error { _, err := UnmarshalHello(b); return err },
		"linkadvert": func(b []byte) error { _, err := UnmarshalLinkAdvert(b); return err },
		"inner":      func(b []byte) error { _, err := UnmarshalInner(b); return err },
		"data":       func(b []byte) error { var d Data; return UnmarshalDataInto(&d, b) },
		"beacon":     func(b []byte) error { _, err := UnmarshalBeacon(b); return err },
		"revoke":     func(b []byte) error { _, err := UnmarshalRevoke(b); return err },
		"joinreq":    func(b []byte) error { _, err := UnmarshalJoinReq(b); return err },
		"joinresp":   func(b []byte) error { _, err := UnmarshalJoinResp(b); return err },
		"refresh":    func(b []byte) error { _, err := UnmarshalRefresh(b); return err },
	}
	for name, buf := range full {
		dec := decode[name]
		if err := dec(buf); err != nil {
			t.Fatalf("%s: full decode failed: %v", name, err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if name == "data" && cut == dataFirst {
				continue
			}
			if err := dec(buf[:cut]); err == nil {
				t.Errorf("%s: truncation to %d bytes accepted", name, cut)
			}
		}
		if err := dec(append(append([]byte(nil), buf...), 0xAA)); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
	}
}

func TestDecodedBytesDoNotAliasInput(t *testing.T) {
	in := &Inner{Src: 1, Sealed: []byte("sensor")}
	buf := in.Marshal()
	out, err := UnmarshalInner(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF // scribble over the radio buffer
	if !bytes.Equal(out.Sealed, []byte("sensor")) {
		t.Fatal("decoded Sealed aliases the input buffer")
	}
}

func BenchmarkDataMarshal(b *testing.B) {
	m := &Data{Tau: 1, SrcCID: 2, Hop: 5, Readings: []Reading{{Origin: 3, Seq: 4, Inner: make([]byte, 48)}}}
	for i := 0; i < b.N; i++ {
		m.Marshal()
	}
}

func BenchmarkDataUnmarshal(b *testing.B) {
	buf := (&Data{Tau: 1, SrcCID: 2, Hop: 5, Readings: []Reading{{Origin: 3, Seq: 4, Inner: make([]byte, 48)}}}).Marshal()
	var m Data
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := UnmarshalDataInto(&m, buf); err != nil {
			b.Fatal(err)
		}
	}
}
