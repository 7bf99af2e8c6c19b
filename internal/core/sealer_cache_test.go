package core

import (
	"testing"
	"time"

	"repro/internal/crypt"
	"repro/internal/node"
)

// assertSealersHeld checks the sealer references against the
// key-erasure invariant, on the nodes and in the engine's shared
// keyring. Per node: every keyed AEAD state a node references belongs to
// a key it still holds — a cluster key in its KeyStore, a
// changeover-window previous key, its node key, Km, KMC or its candidate
// cluster key, or (on the base station) a node key it resolved for
// Step-1 decryption. A keyed state carries the derived Kencr/KMAC of its
// key, so one left behind would hand a captor the traffic of a key the
// protocol already erased. In the keyring: see assertKeyringRefs. It
// returns how many node references it checked.
func assertSealersHeld(t *testing.T, d *Deployment) int {
	t.Helper()
	checked := assertNodeSealersHeld(t, d.Sensors)
	assertKeyringRefs(t, d.Sensors)
	return checked
}

// assertNodeSealersHeld is assertSealersHeld's per-node half.
func assertNodeSealersHeld(t *testing.T, sensors []*Sensor) int {
	t.Helper()
	checked := 0
	for i, s := range sensors {
		if s == nil {
			continue
		}
		ks := s.KeyStore()
		held := map[crypt.Key]bool{
			ks.NodeKey: true, ks.Master: true, ks.AddMaster: true, ks.CandidateClusterKey: true,
		}
		if ks.InCluster {
			held[ks.ClusterKey] = true
		}
		for _, cid := range ks.NeighborCIDs() {
			k, _ := ks.KeyFor(cid)
			held[k] = true
		}
		for _, m := range s.meta {
			if m.hasPrev {
				held[m.prev] = true
			}
		}
		if s.bs != nil {
			for _, k := range s.bs.nodeKeys {
				held[k] = true
			}
		}
		for k := range s.sealers {
			checked++
			if !held[k] {
				t.Errorf("node %d caches a sealer for key %x it no longer holds", i, k[:4])
			}
		}
	}
	return checked
}

// assertKeyringRefs checks the shared keyring against the nodes: every
// entry's reference count equals the number of sensors referencing its
// key, so the ring keeps no entry for a key that no sensor holds. The
// per-node check cannot see a missed release — the node forgets the key
// but the ring keeps its derived state — so this one must. Every sensor
// that has used a key must draw from the same ring, which it returns
// (nil if no sensor has used one yet).
func assertKeyringRefs(t *testing.T, sensors []*Sensor) *crypt.Keyring {
	t.Helper()
	var ring *crypt.Keyring
	want := make(map[crypt.Key]int)
	for i, s := range sensors {
		if s == nil || s.ring == nil {
			continue
		}
		if ring == nil {
			ring = s.ring
		} else if s.ring != ring {
			t.Fatalf("node %d draws from a different keyring than the other sensors", i)
		}
		for k := range s.sealers {
			want[k]++
		}
	}
	if ring == nil {
		return nil
	}
	if ring.Len() != len(want) {
		t.Errorf("keyring holds %d keys; the sensors reference %d", ring.Len(), len(want))
	}
	for k, n := range want {
		if got := ring.Refs(k); got != n {
			t.Errorf("keyring: key %x has %d references; %d sensors hold it", k[:4], got, n)
		}
	}
	return ring
}

// cachingNodes counts the sensors holding a cached sealer for k.
func cachingNodes(d *Deployment, k crypt.Key) int {
	n := 0
	for _, s := range d.Sensors {
		if s == nil {
			continue
		}
		if _, ok := s.sealers[k]; ok {
			n++
		}
	}
	return n
}

// beaconRound floods a fresh routing beacon, which every node seals
// under its own cluster key and opens under its neighbors' — so each
// held cluster key gets a cached sealer on the nodes that use it.
func beaconRound(t *testing.T, d *Deployment) {
	t.Helper()
	bs := d.BS()
	at := d.Eng.Now() + 10*time.Millisecond
	d.Eng.Do(at, d.BSIndex, func(ctx node.Context) { bs.TriggerBeacon(ctx) })
	if _, err := d.Eng.RunUntilIdle(5_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestSealerCacheDropsRevokedKey(t *testing.T) {
	d := deploy(t, 80, 12, 113)
	bsCID, _ := d.BS().Cluster()
	var victim uint32
	for _, s := range d.Sensors {
		if cid, ok := s.Cluster(); ok && cid != bsCID {
			victim = cid
			break
		}
	}
	victimKey, _ := d.Sensors[victim].KeyStore().KeyFor(victim)
	beaconRound(t, d)
	if n := cachingNodes(d, victimKey); n == 0 {
		t.Fatal("no node cached the victim cluster's sealer; the test would prove nothing")
	}
	bs := d.BS()
	d.Eng.Do(d.Eng.Now()+10*time.Millisecond, d.BSIndex, func(ctx node.Context) {
		if !bs.RevokeClusters(ctx, []uint32{victim}) {
			t.Error("revocation not issued")
		}
	})
	if _, err := d.Eng.RunUntilIdle(5_000_000); err != nil {
		t.Fatal(err)
	}
	if n := cachingNodes(d, victimKey); n != 0 {
		t.Fatalf("%d nodes still cache the revoked cluster's sealer", n)
	}
	assertSealersHeld(t, d)
}

// TestSealerCacheFollowsHashRefresh runs two hash refreshes with traffic
// in every epoch: after the second, the epoch-0 key is past its
// changeover window and must be gone from every cache, while the epoch-1
// key survives as the previous key.
func TestSealerCacheFollowsHashRefresh(t *testing.T) {
	d := deploy(t, 70, 10, 101)
	refresh := func() {
		at := d.Eng.Now() + 10*time.Millisecond
		for i, s := range d.Sensors {
			s := s
			d.Eng.Do(at, i, func(ctx node.Context) { s.HashRefresh(ctx) })
		}
		d.Eng.Run(at + 10*time.Millisecond)
		beaconRound(t, d)
	}
	s := d.Sensors[33]
	cid, _ := s.Cluster()
	k0, _ := s.KeyStore().KeyFor(cid)
	beaconRound(t, d)
	if cachingNodes(d, k0) == 0 {
		t.Fatal("no node cached the epoch-0 sealer")
	}
	refresh()
	if cachingNodes(d, k0) == 0 {
		t.Fatal("epoch-0 sealer evicted while still the changeover key")
	}
	k1, _ := s.KeyStore().KeyFor(cid)
	refresh()
	if n := cachingNodes(d, k0); n != 0 {
		t.Fatalf("%d nodes cache an epoch-0 sealer two refreshes on", n)
	}
	if cachingNodes(d, k1) == 0 {
		t.Fatal("epoch-1 sealer evicted while still the changeover key")
	}
	if assertSealersHeld(t, d) == 0 {
		t.Fatal("no sealers cached")
	}
	if got := sendAndCount(t, d, 33, []byte("epoch-2")); got != 1 {
		t.Fatalf("delivered %d readings after two refreshes", got)
	}
}

// TestSealerCacheFollowsRekey re-keys one cluster twice: the original
// key leaves every node at the second rotation.
func TestSealerCacheFollowsRekey(t *testing.T) {
	d := deploy(t, 80, 12, 107)
	st := d.Clusters()
	var cid uint32 // the lowest nonzero CID with 3+ members
	for c, sz := range st.Sizes {
		if c != 0 && sz >= 3 && (cid == 0 || c < cid) {
			cid = c
		}
	}
	if cid == 0 {
		t.Skip("no cluster with 3+ members at this seed")
	}
	head := d.Sensors[cid]
	k0, _ := head.KeyStore().KeyFor(cid)
	beaconRound(t, d)
	if cachingNodes(d, k0) == 0 {
		t.Fatal("no node cached the original cluster sealer")
	}
	for round := 0; round < 2; round++ {
		d.Eng.Do(d.Eng.Now()+10*time.Millisecond, int(cid), func(ctx node.Context) {
			if !head.StartClusterRefresh(ctx) {
				t.Error("head refused to refresh")
			}
		})
		if _, err := d.Eng.RunUntilIdle(2_000_000); err != nil {
			t.Fatal(err)
		}
		beaconRound(t, d)
	}
	if n := cachingNodes(d, k0); n != 0 {
		t.Fatalf("%d nodes cache the original cluster sealer after two re-keys", n)
	}
	assertSealersHeld(t, d)
}

// TestKeyringFollowsKmErasure checks the shared keyring across key setup:
// mid-setup every node's reference to Km resolves to one shared entry,
// and once every node has erased Km the entry is gone from the ring.
func TestKeyringFollowsKmErasure(t *testing.T) {
	d, err := Deploy(DeployOptions{N: 80, Density: 10, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	km := d.BS().KeyStore().Master
	d.Eng.Run(d.Cfg.OperationalAt - time.Millisecond)
	ring := assertKeyringRefs(t, d.Sensors)
	if ring == nil {
		t.Fatal("no node has used a key mid-setup")
	}
	if ring.Refs(km) < 2 {
		t.Fatalf("Km has %d keyring references mid-setup; want it shared by every node that used it", ring.Refs(km))
	}
	assertSealersHeld(t, d)
	d.Eng.Run(d.Cfg.OperationalAt + time.Second)
	if n := ring.Refs(km); n != 0 {
		t.Fatalf("Km keeps %d keyring references after every node erased it", n)
	}
	if assertSealersHeld(t, d) == 0 {
		t.Fatal("no sealers referenced after setup")
	}
	// 80 nodes share far fewer keys than they hold references to.
	if refs := countSealerRefs(d.Sensors); ring.Len() >= refs {
		t.Fatalf("keyring holds %d states for %d node references; nothing is shared", ring.Len(), refs)
	}
}

// TestKeyringSharded runs the keyring on the sharded engine (S=2), where
// both shards' goroutines acquire and release in the engine's one ring:
// after setup, readings, a hash refresh and a revocation, its counts
// still match the sensors, and a cluster straddling the stripe boundary
// is interned once for both shards. Run it under -race.
func TestKeyringSharded(t *testing.T) {
	d, err := Deploy(DeployOptions{N: 120, Density: 10, Seed: 23, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	assertSealersHeld(t, d)
	for _, src := range []int{5, 60, 110} {
		sendAndCount(t, d, src, []byte("sharded"))
	}
	at := d.Eng.Now() + 10*time.Millisecond
	for i, s := range d.Sensors {
		s := s
		d.Eng.Do(at, i, func(ctx node.Context) { s.HashRefresh(ctx) })
	}
	d.Eng.Run(at + 10*time.Millisecond)
	beaconRound(t, d)
	assertSealersHeld(t, d)
	bsCID, _ := d.BS().Cluster()
	var victim uint32
	for _, s := range d.Sensors {
		if cid, ok := s.Cluster(); ok && cid != bsCID && (victim == 0 || cid < victim) {
			victim = cid
		}
	}
	bs := d.BS()
	d.Eng.Do(d.Eng.Now()+10*time.Millisecond, d.BSIndex, func(ctx node.Context) {
		if !bs.RevokeClusters(ctx, []uint32{victim}) {
			t.Error("revocation not issued")
		}
	})
	if _, err := d.Eng.RunUntilIdle(5_000_000); err != nil {
		t.Fatal(err)
	}
	if assertSealersHeld(t, d) == 0 {
		t.Fatal("no sealers referenced")
	}
	// A cluster key held on both sides of the stripe boundary has one
	// entry whose references come from both shards.
	shardOf := d.Graph.ShardStripes(2)
	onShard := make(map[crypt.Key][2]bool)
	for i, s := range d.Sensors {
		for k := range s.sealers {
			sides := onShard[k]
			sides[shardOf[i]] = true
			onShard[k] = sides
		}
	}
	shared := 0
	for _, s := range d.Sensors {
		if cid, ok := s.Cluster(); ok {
			k, _ := s.KeyStore().KeyFor(cid)
			if sides := onShard[k]; sides[0] && sides[1] {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no cluster key is referenced from both shards; want a boundary cluster shared")
	}
}

// countSealerRefs sums the keyed-state references the sensors hold.
func countSealerRefs(sensors []*Sensor) int {
	n := 0
	for _, s := range sensors {
		if s != nil {
			n += len(s.sealers)
		}
	}
	return n
}
