package crypt

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b + byte(i)
	}
	return k
}

func TestKeyZero(t *testing.T) {
	k := testKey(1)
	if k.IsZero() {
		t.Fatal("nonzero key reported zero")
	}
	k.Zero()
	if !k.IsZero() {
		t.Fatal("zeroed key not zero")
	}
}

func TestKeyEqual(t *testing.T) {
	a, b := testKey(1), testKey(1)
	if !a.Equal(b) {
		t.Fatal("equal keys not equal")
	}
	b[0] ^= 1
	if a.Equal(b) {
		t.Fatal("different keys equal")
	}
}

func TestRandomKeyDistinct(t *testing.T) {
	a, err := RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Fatal("two random keys identical")
	}
	if a.IsZero() {
		t.Fatal("random key all zero")
	}
}

func TestPRFDeterministicAndKeyed(t *testing.T) {
	k := testKey(3)
	a := PRF(k, []byte("hello"))
	b := PRF(k, []byte("hello"))
	if a != b {
		t.Fatal("PRF not deterministic")
	}
	c := PRF(k, []byte("hellp"))
	if a == c {
		t.Fatal("PRF ignored input difference")
	}
	d := PRF(testKey(4), []byte("hello"))
	if a == d {
		t.Fatal("PRF ignored key difference")
	}
}

func TestPRFPartsConcatenate(t *testing.T) {
	k := testKey(5)
	a := PRF(k, []byte("ab"), []byte("cd"))
	b := PRF(k, []byte("abcd"))
	if a != b {
		t.Fatal("PRF over parts differs from concatenation")
	}
}

func TestDeriveKeySeparation(t *testing.T) {
	k := testKey(7)
	enc := DeriveKey(k, LabelEncrypt)
	mac := DeriveKey(k, LabelMAC)
	if enc.Equal(mac) {
		t.Fatal("encrypt and MAC subkeys collide")
	}
	if enc.Equal(k) || mac.Equal(k) {
		t.Fatal("subkey equals parent key")
	}
}

func TestDeriveIDDistinct(t *testing.T) {
	kmc := testKey(9)
	seen := map[Key]uint32{}
	for id := uint32(0); id < 1000; id++ {
		kc := DeriveID(kmc, LabelCluster, id)
		if prev, dup := seen[kc]; dup {
			t.Fatalf("cluster keys for IDs %d and %d collide", prev, id)
		}
		seen[kc] = id
	}
}

func TestMACVerify(t *testing.T) {
	k := testKey(11)
	msg := []byte("the message")
	tag := MAC(k, msg)
	if !VerifyMAC(k, tag[:], msg) {
		t.Fatal("valid MAC rejected")
	}
	bad := tag
	bad[0] ^= 1
	if VerifyMAC(k, bad[:], msg) {
		t.Fatal("tampered MAC accepted")
	}
	if VerifyMAC(k, tag[:], []byte("the messagf")) {
		t.Fatal("MAC accepted modified message")
	}
	if VerifyMAC(testKey(12), tag[:], msg) {
		t.Fatal("MAC accepted under wrong key")
	}
	if VerifyMAC(k, tag[:MACSize-1], msg) {
		t.Fatal("short tag accepted")
	}
}

func TestEncryptDecryptRoundtrip(t *testing.T) {
	k := testKey(13)
	f := func(nonce uint64, pt []byte) bool {
		ct := Encrypt(k, nonce, pt)
		// The keystream must be non-trivial and must be what changes the
		// data: ct XOR pt equals the encryption of zeros at every length.
		// Checking the keystream itself rather than ct != pt keeps short
		// inputs covered, which a random keystream may leave unchanged.
		ks := Encrypt(k, nonce, make([]byte, max(len(pt), 8)))
		if bytes.Equal(ks[:8], make([]byte, 8)) || len(ct) != len(pt) {
			return false
		}
		for i := range pt {
			if ct[i]^pt[i] != ks[i] {
				return false
			}
		}
		return bytes.Equal(Decrypt(k, nonce, ct), pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptNonceMatters(t *testing.T) {
	k := testKey(15)
	pt := []byte("same plaintext every time")
	a := Encrypt(k, 1, pt)
	b := Encrypt(k, 2, pt)
	if bytes.Equal(a, b) {
		t.Fatal("distinct nonces produced identical ciphertexts")
	}
}

func TestSealOpenRoundtrip(t *testing.T) {
	k := testKey(17)
	f := func(nonce uint64, aad, pt []byte) bool {
		sealed := Seal(k, nonce, aad, pt)
		if len(sealed) != len(pt)+Overhead {
			return false
		}
		got, ok := Open(k, nonce, aad, sealed)
		return ok && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	k := testKey(19)
	aad := []byte("cid=13")
	pt := []byte("sensor reading: 42")
	sealed := Seal(k, 7, aad, pt)

	// Flip each byte in turn; every variant must fail authentication.
	for i := range sealed {
		mut := append([]byte(nil), sealed...)
		mut[i] ^= 0x40
		if _, ok := Open(k, 7, aad, mut); ok {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
	if _, ok := Open(k, 8, aad, sealed); ok {
		t.Fatal("wrong nonce accepted")
	}
	if _, ok := Open(k, 7, []byte("cid=14"), sealed); ok {
		t.Fatal("wrong aad accepted")
	}
	if _, ok := Open(testKey(20), 7, aad, sealed); ok {
		t.Fatal("wrong key accepted")
	}
	if _, ok := Open(k, 7, aad, sealed[:Overhead-1]); ok {
		t.Fatal("truncated sealed blob accepted")
	}
}

func TestSealEmptyPlaintext(t *testing.T) {
	k := testKey(21)
	sealed := Seal(k, 1, nil, nil)
	if len(sealed) != Overhead {
		t.Fatalf("sealed empty plaintext has length %d", len(sealed))
	}
	pt, ok := Open(k, 1, nil, sealed)
	if !ok || len(pt) != 0 {
		t.Fatal("empty plaintext did not roundtrip")
	}
}

func TestHashForwardOneWayChain(t *testing.T) {
	k := testKey(23)
	h1 := HashForward(k)
	h2 := HashForward(h1)
	if h1.Equal(k) || h2.Equal(h1) || h2.Equal(k) {
		t.Fatal("hash chain produced a fixed point")
	}
	if !HashForward(k).Equal(h1) {
		t.Fatal("HashForward not deterministic")
	}
}

func BenchmarkSeal64(b *testing.B) {
	k := testKey(1)
	pt := make([]byte, 64)
	aad := make([]byte, 8)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		Seal(k, uint64(i), aad, pt)
	}
}

func BenchmarkOpen64(b *testing.B) {
	k := testKey(1)
	pt := make([]byte, 64)
	aad := make([]byte, 8)
	sealed := Seal(k, 42, aad, pt)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Open(k, 42, aad, sealed); !ok {
			b.Fatal("open failed")
		}
	}
}

func BenchmarkMAC64(b *testing.B) {
	k := testKey(1)
	msg := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		MAC(k, msg)
	}
}
