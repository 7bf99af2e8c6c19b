package core

import (
	"testing"
	"time"

	"repro/internal/crypt"
	"repro/internal/node"
)

// assertSealersHeld checks the sealer cache against the key-erasure
// invariant: every cached AEAD state belongs to a key the node still
// holds — a cluster key in its KeyStore, a changeover-window previous
// key, its node key, Km, KMC or its candidate cluster key, or (on the
// base station) a node key it resolved for Step-1 decryption. A sealer
// carries the derived Kencr/KMAC of its key, so one left behind would
// hand a captor the traffic of a key the protocol already erased. It
// returns how many cached sealers it checked.
func assertSealersHeld(t *testing.T, d *Deployment) int {
	t.Helper()
	checked := 0
	for i, s := range d.Sensors {
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
