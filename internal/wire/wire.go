// Package wire defines the binary message format every protocol packet uses
// on the (simulated) radio, and codecs for each message body.
//
// Layout discipline: a radio packet is one Frame — a type tag, a cluster-ID
// key selector, a seal nonce, and an opaque payload. The payload is either a
// crypt.Seal output (most messages) or a plaintext body (join requests,
// which by construction happen before any key is shared). Body structs
// marshal with fixed-width big-endian integers and length-prefixed byte
// strings, so sizes are predictable and the energy model can charge per
// transmitted byte.
//
// The CID field plays the role the paper assigns it in Step 2: "Since the
// nodes that will receive that message don't know the sender and therefore
// the key that the message was encrypted with, the cluster ID is included in
// c2. This way intermediate sensors will use the right key in their set S to
// authenticate the message." It is authenticated as the seal's associated
// data but cannot be encrypted.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/crypt"
)

// Type identifies a protocol message.
type Type byte

// Message types. Values are stable wire constants.
const (
	THello      Type = 1  // clusterhead announcement, sealed under Km (Section IV-B.1)
	TLinkAdvert Type = 2  // cluster-key advert, sealed under Km (Section IV-B.2)
	TData       Type = 3  // hop-by-hop wrapped readings, sealed under a cluster key (Section IV-C)
	TBeacon     Type = 4  // routing-gradient beacon, sealed under a cluster key
	TRevoke     Type = 5  // revocation command authenticated by the key chain (Section IV-D)
	TJoinReq    Type = 6  // new node hello, plaintext (Section IV-E)
	TJoinResp   Type = 7  // cluster-ID response, MAC'd under the cluster key (Section IV-E)
	TRefresh    Type = 8  // within-cluster key refresh, sealed under the old cluster key
	TKeepAlive  Type = 9  // clusterhead liveness heartbeat, sealed under the cluster key
	TRepair     Type = 10 // headship claim after a head crash, sealed under the cluster key
	TAuthority  Type = 11 // threshold-authority round message (internal/authority)
	// TDataBatch is retired: TData carries one reading or many, so
	// nothing sends type 12 and receivers drop it. The value stays
	// reserved, and parses, so frame counters can still name it.
	TDataBatch Type = 12
)

// String returns the message type mnemonic.
func (t Type) String() string {
	switch t {
	case THello:
		return "HELLO"
	case TLinkAdvert:
		return "LINK-ADVERT"
	case TData:
		return "DATA"
	case TBeacon:
		return "BEACON"
	case TRevoke:
		return "REVOKE"
	case TJoinReq:
		return "JOIN-REQ"
	case TJoinResp:
		return "JOIN-RESP"
	case TRefresh:
		return "REFRESH"
	case TKeepAlive:
		return "KEEPALIVE"
	case TRepair:
		return "REPAIR"
	case TAuthority:
		return "AUTHORITY"
	case TDataBatch:
		return "DATA-BATCH"
	default:
		return fmt.Sprintf("TYPE(%d)", byte(t))
	}
}

// Frame is the outermost packet structure.
type Frame struct {
	Type Type
	// CID selects the key the payload is sealed under (the sender's
	// cluster ID for TData/TBeacon/TRefresh; unused otherwise). It is
	// bound into the seal as associated data.
	CID uint32
	// Nonce is the seal nonce. Senders construct it as
	// (senderID << 32) | perSenderCounter so no two packets ever reuse a
	// (key, nonce) pair even under keys shared by a whole cluster.
	Nonce uint64
	// Payload is the sealed (or, for TJoinReq, plaintext) body.
	Payload []byte
}

const frameHeader = 1 + 4 + 8 + 2 // type, cid, nonce, payload length

// ErrTruncated is returned when a packet is shorter than its encoding
// requires.
var ErrTruncated = errors.New("wire: truncated packet")

// ErrBadType is returned when a frame's type tag is unknown.
var ErrBadType = errors.New("wire: unknown message type")

// MaxPayload is the largest payload length a frame can carry.
const MaxPayload = 1<<16 - 1

// Marshal encodes the frame.
func (f *Frame) Marshal() ([]byte, error) {
	return f.AppendMarshal(nil)
}

// AppendMarshal appends the frame's encoding to dst and returns the
// extended slice — the same bytes Marshal produces, but reusable scratch
// with spare capacity makes the call allocation-free.
func (f *Frame) AppendMarshal(dst []byte) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return dst, fmt.Errorf("wire: payload of %d bytes exceeds maximum %d", len(f.Payload), MaxPayload)
	}
	dst = append(dst, byte(f.Type))
	dst = binary.BigEndian.AppendUint32(dst, f.CID)
	dst = binary.BigEndian.AppendUint64(dst, f.Nonce)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Payload)))
	return append(dst, f.Payload...), nil
}

// ParseFrame decodes a frame from a packet. The returned frame's payload
// aliases pkt.
func ParseFrame(pkt []byte) (*Frame, error) {
	f := new(Frame)
	if err := ParseFrameInto(f, pkt); err != nil {
		return nil, err
	}
	return f, nil
}

// ParseFrameInto decodes a frame from a packet into a caller-provided
// (typically stack-allocated) Frame, avoiding ParseFrame's per-packet
// allocation. f.Payload aliases pkt; it is only as long-lived as the
// packet buffer, which on the simulator's receive path is recycled when
// Receive returns.
func ParseFrameInto(f *Frame, pkt []byte) error {
	if len(pkt) < frameHeader {
		return ErrTruncated
	}
	f.Type = Type(pkt[0])
	f.CID = binary.BigEndian.Uint32(pkt[1:5])
	f.Nonce = binary.BigEndian.Uint64(pkt[5:13])
	f.Payload = nil
	if f.Type < THello || f.Type > TDataBatch {
		return ErrBadType
	}
	n := int(binary.BigEndian.Uint16(pkt[13:15]))
	if len(pkt) < frameHeader+n {
		return ErrTruncated
	}
	// A radio packet is exactly one frame: trailing bytes beyond the
	// declared payload length are rejected so parse-then-marshal is the
	// identity on every accepted packet (found by FuzzParseFrame).
	if len(pkt) != frameHeader+n {
		return fmt.Errorf("wire: %d trailing bytes after frame payload", len(pkt)-frameHeader-n)
	}
	f.Payload = pkt[frameHeader : frameHeader+n]
	return nil
}

// writer appends big-endian fields to a buffer.
type writer struct {
	buf []byte
}

func (w *writer) u8(v byte) { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}
func (w *writer) u32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}
func (w *writer) u64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}
func (w *writer) i64(v int64) { w.u64(uint64(v)) }
func (w *writer) key(k crypt.Key) {
	w.buf = append(w.buf, k[:]...)
}
func (w *writer) bytes(b []byte) {
	if len(b) > MaxPayload {
		panic("wire: byte string too long")
	}
	w.u16(uint16(len(b)))
	w.buf = append(w.buf, b...)
}

// reader consumes big-endian fields from a buffer with a sticky error.
type reader struct {
	buf []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = ErrTruncated
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}
func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}
func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}
func (r *reader) i64() int64 { return int64(r.u64()) }
func (r *reader) key() crypt.Key {
	b := r.take(crypt.KeySize)
	if b == nil {
		return crypt.Key{}
	}
	return crypt.KeyFromBytes(b)
}
func (r *reader) bytes() []byte {
	n := int(r.u16())
	b := r.take(n)
	if b == nil {
		return nil
	}
	// Copy so decoded messages never alias radio buffers.
	return append([]byte(nil), b...)
}

// done returns an error if decoding failed or left trailing bytes.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf))
	}
	return nil
}
