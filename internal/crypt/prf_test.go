package crypt

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// hmacRef is HMAC-SHA256 straight from crypto/hmac: the reference PRF
// must match byte for byte, from stack and heap buffers alike.
func hmacRef(k Key, parts ...[]byte) [32]byte {
	mac := hmac.New(sha256.New, k[:])
	for _, p := range parts {
		mac.Write(p)
	}
	var out [32]byte
	mac.Sum(out[:0])
	return out
}

var allLabels = []byte{LabelEncrypt, LabelMAC, LabelCluster, LabelNode, LabelChain, LabelRefresh}

// TestPRFPathsMatchHMAC cross-checks PRF, DeriveKey and DeriveID against
// crypto/hmac for every label and every context length from 0 to 128
// bytes, which crosses the stack path's prfFastMax boundary. Contexts
// are also split across several parts so the part-copying loops are
// exercised at the boundary too.
func TestPRFPathsMatchHMAC(t *testing.T) {
	k := testKey(41)
	ctx := make([]byte, 128)
	for i := range ctx {
		ctx[i] = byte(7*i + 3)
	}
	for _, label := range allLabels {
		for n := 0; n <= len(ctx); n++ {
			c := ctx[:n]
			want := hmacRef(k, []byte{label}, c)
			if got := PRF(k, []byte{label}, c); got != want {
				t.Fatalf("PRF label %d len %d: %x want %x", label, n, got, want)
			}
			if got := DeriveKey(k, label, c); got != KeyFromBytes(want[:KeySize]) {
				t.Fatalf("DeriveKey label %d len %d: %x want %x", label, n, got, want[:KeySize])
			}
			half := n / 2
			if got := DeriveKey(k, label, c[:half], nil, c[half:]); got != KeyFromBytes(want[:KeySize]) {
				t.Fatalf("DeriveKey label %d split %d+%d: %x want %x", label, half, n-half, got, want[:KeySize])
			}
			// The message alone (no label byte) covers n = prfFastMax+1
			// landing exactly one past the boundary on PRF's own count.
			if got, want := PRF(k, c), hmacRef(k, c); got != want {
				t.Fatalf("PRF bare len %d: %x want %x", n, got, want)
			}
		}
		for _, id := range []uint32{0, 1, 0x01020304, 0xFFFFFFFF} {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], id)
			want := hmacRef(k, []byte{label}, b[:])
			if got := DeriveID(k, label, id); got != KeyFromBytes(want[:KeySize]) {
				t.Fatalf("DeriveID label %d id %#x: %x want %x", label, id, got, want[:KeySize])
			}
		}
	}
	if got, want := PRF(k), hmacRef(k); got != want {
		t.Fatalf("PRF of no parts: %x want %x", got, want)
	}
}

// TestDerivationsAllocFree pins the stack path: the derivations the
// protocol makes on every frame and every sealer build allocate nothing.
func TestDerivationsAllocFree(t *testing.T) {
	k := testKey(43)
	var sink Key
	if n := testing.AllocsPerRun(200, func() { sink = DeriveID(k, LabelCluster, 12345) }); n != 0 {
		t.Errorf("DeriveID allocates %v/op; want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { sink = DeriveKey(k, LabelMAC) }); n != 0 {
		t.Errorf("DeriveKey allocates %v/op; want 0", n)
	}
	ctx := []byte("twenty-four byte context")
	if n := testing.AllocsPerRun(200, func() { sink = DeriveKey(k, LabelRefresh, ctx) }); n != 0 {
		t.Errorf("DeriveKey with context allocates %v/op; want 0", n)
	}
	var out [32]byte
	if n := testing.AllocsPerRun(200, func() { out = PRF(k, ctx, ctx) }); n != 0 {
		t.Errorf("PRF allocates %v/op; want 0", n)
	}
	_, _ = sink, out
}

func BenchmarkDeriveKey(b *testing.B) {
	k := testKey(45)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k = DeriveKey(k, LabelMAC)
	}
}

func BenchmarkNewSealer(b *testing.B) {
	k := testKey(47)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewSealer(k)
		k[0]++
	}
}
