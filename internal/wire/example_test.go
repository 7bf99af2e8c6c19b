package wire_test

import (
	"fmt"

	"repro/internal/crypt"
	"repro/internal/wire"
)

// ExampleFrame shows the packet structure every protocol message uses:
// an outer frame carrying the key-selecting cluster ID and seal nonce,
// with a crypt.Seal payload authenticated against both.
func ExampleFrame() {
	kc := crypt.KeyFromBytes([]byte("cluster 13's key"))
	body := (&wire.Data{
		Tau:      1_000_000,
		SrcCID:   13,
		Hop:      5,
		Readings: []wire.Reading{{Origin: 14, Seq: 1, Inner: []byte("c1")}},
	}).Marshal()

	const nonce = (14 << 32) | 1 // sender ID || per-sender counter
	frame := &wire.Frame{
		Type:    wire.TData,
		CID:     13,
		Nonce:   nonce,
		Payload: crypt.Seal(kc, nonce, []byte{byte(wire.TData), 0, 0, 0, 13}, body),
	}
	pkt, _ := frame.Marshal()

	// A receiver holding cluster 13's key reverses the process.
	parsed, _ := wire.ParseFrame(pkt)
	pt, ok := crypt.Open(kc, parsed.Nonce,
		[]byte{byte(parsed.Type), 0, 0, 0, byte(parsed.CID)}, parsed.Payload)
	if !ok {
		fmt.Println("authentication failed")
		return
	}
	var d wire.Data
	_ = wire.UnmarshalDataInto(&d, pt)
	rd := d.Readings[0]
	fmt.Printf("%s from cluster %d: origin=%d seq=%d hop=%d inner=%q\n",
		parsed.Type, parsed.CID, rd.Origin, rd.Seq, d.Hop, rd.Inner)
	// Output:
	// DATA from cluster 13: origin=14 seq=1 hop=5 inner="c1"
}
