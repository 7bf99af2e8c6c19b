package core

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/crypt"
	"repro/internal/node"
	"repro/internal/wire"
	"repro/internal/xrand"
)

func testSensor() *Sensor {
	auth := AuthorityFromSeed(1, 16)
	return NewSensor(DefaultConfig(), auth.MaterialFor(7))
}

func TestFrameAADFormat(t *testing.T) {
	aad := FrameAAD(wire.TData, 0x01020304)
	want := []byte{byte(wire.TData), 1, 2, 3, 4}
	if len(aad) != len(want) {
		t.Fatalf("aad length %d", len(aad))
	}
	for i := range want {
		if aad[i] != want[i] {
			t.Fatalf("aad = %x, want %x", aad, want)
		}
	}
}

func TestInnerAADFormat(t *testing.T) {
	aad := InnerAAD(0x0A0B0C0D)
	if len(aad) != 5 || aad[0] != 0xE2 || aad[4] != 0x0D {
		t.Fatalf("inner aad = %x", aad)
	}
	// Distinct origins must give distinct AADs (replay-binding).
	if string(InnerAAD(1)) == string(InnerAAD(2)) {
		t.Fatal("inner AADs collide across origins")
	}
	// Inner and frame AADs must never collide (domain separation): the
	// first byte 0xE2 is outside the wire.Type range.
	if aad[0] == byte(wire.TData) {
		t.Fatal("inner AAD collides with frame AAD domain")
	}
}

func TestNextNonceUniqueAndSenderBound(t *testing.T) {
	s := testSensor()
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		n := s.nextNonce()
		if seen[n] {
			t.Fatalf("nonce %x repeated at %d", n, i)
		}
		seen[n] = true
		if n>>32 != uint64(s.id) {
			t.Fatalf("nonce %x not bound to sender %d", n, s.id)
		}
	}
	// A different sender's nonces occupy a disjoint space.
	auth := AuthorityFromSeed(1, 16)
	other := NewSensor(DefaultConfig(), auth.MaterialFor(8))
	if other.nextNonce()>>32 == uint64(s.id) {
		t.Fatal("nonce spaces overlap across senders")
	}
}

func TestDedupCacheEviction(t *testing.T) {
	auth := AuthorityFromSeed(2, 16)
	s := NewSensor(DefaultConfig(), auth.MaterialFor(1))
	remember := func(seq uint32) bool { return s.dedup.insert(dedupKey{9, seq}, dedupCapacity) }
	seen := func(seq uint32) bool { return s.dedup.has(dedupKey{9, seq}) }
	const full = uint32(dedupCapacity)
	for seq := uint32(1); seq <= full; seq++ {
		if !remember(seq) {
			t.Fatalf("seq %d reported as already present", seq)
		}
	}
	for seq := uint32(1); seq <= full; seq++ {
		if !seen(seq) {
			t.Fatalf("seq %d forgotten prematurely", seq)
		}
	}
	// One entry past capacity evicts the oldest.
	remember(full + 1)
	if seen(1) {
		t.Fatal("oldest entry not evicted")
	}
	if !seen(full+1) || !seen(2) {
		t.Fatal("recent entries lost")
	}
	// Re-remembering an existing entry must not evict anything.
	if remember(full + 1) {
		t.Fatal("duplicate insert reported as new")
	}
	if !seen(2) {
		t.Fatal("duplicate remember evicted an entry")
	}
}

func TestSendReadingPreconditions(t *testing.T) {
	s := testSensor()
	ctx := &stubContext{}
	if _, ok := s.SendReading(ctx, []byte("x")); ok {
		t.Fatal("pre-operational node sent a reading")
	}
	if len(ctx.sent) != 0 {
		t.Fatal("packet transmitted before operational phase")
	}
}

func TestBaseStationProperties(t *testing.T) {
	auth := AuthorityFromSeed(3, 16)
	bs := NewBaseStation(DefaultConfig(), auth.MaterialFor(0), auth)
	if !bs.IsBaseStation() {
		t.Fatal("IsBaseStation false")
	}
	if bs.Hop() != 0 {
		t.Fatalf("BS hop %d", bs.Hop())
	}
	if bs.Deliveries() != nil {
		t.Fatal("fresh BS has deliveries")
	}
	sensor := NewSensor(DefaultConfig(), auth.MaterialFor(1))
	if sensor.IsBaseStation() {
		t.Fatal("plain sensor claims BS role")
	}
	if sensor.Deliveries() != nil {
		t.Fatal("plain sensor returns deliveries")
	}
	sensor.SetOnDeliver(func(Delivery) {}) // no-op on non-BS, must not panic
}

func TestRefreshModeString(t *testing.T) {
	if RefreshHash.String() != "hash" || RefreshRekey.String() != "rekey" {
		t.Fatal("RefreshMode names wrong")
	}
	if RefreshMode(9).String() != "unknown" {
		t.Fatal("unknown mode name wrong")
	}
}

// stubContext is a minimal node.Context for precondition tests.
type stubContext struct {
	sent [][]byte
	keys *crypt.Keyring
	sc   node.Scratch
}

func (c *stubContext) ID() node.ID                                   { return 7 }
func (c *stubContext) Now() time.Duration                            { return 0 }
func (c *stubContext) Broadcast(pkt []byte)                          { c.sent = append(c.sent, pkt) }
func (c *stubContext) SetTimer(time.Duration, node.Tag) node.TimerID { return 1 }
func (c *stubContext) CancelTimer(node.TimerID)                      {}
func (c *stubContext) Rand() *xrand.RNG                              { return xrand.New(1) }
func (c *stubContext) ChargeCipher(int)                              {}
func (c *stubContext) ChargeMAC(int)                                 {}
func (c *stubContext) Die()                                          {}
func (c *stubContext) Scratch() *node.Scratch                        { return &c.sc }
func (c *stubContext) Keyring() *crypt.Keyring {
	if c.keys == nil {
		c.keys = crypt.NewKeyring()
	}
	return c.keys
}

// Benchmarks for the protocol's hot paths.

func BenchmarkRunSetup500(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := Deploy(DeployOptions{N: 500, Density: 12.5, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.RunSetup(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndReading(b *testing.B) {
	d, err := Deploy(DeployOptions{N: 500, Density: 12.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := 1 + i%499
		d.SendReading(src, d.Eng.Now()+time.Millisecond, []byte("benchmark"))
		if _, err := d.Eng.RunUntilIdle(0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(d.Deliveries()))/float64(b.N), "delivery-ratio")
}

// TestSensorSize pins the per-node struct below the 768-B allocation
// size class (docs/SCALING.md, "Per-node memory"): callback-scoped
// buffers belong to the host's node.Scratch, not to each sensor.
func TestSensorSize(t *testing.T) {
	if sz := unsafe.Sizeof(Sensor{}); sz > 768 {
		t.Fatalf("unsafe.Sizeof(Sensor{}) = %d B; want at most 768", sz)
	} else {
		t.Logf("unsafe.Sizeof(Sensor{}) = %d B", sz)
	}
}
