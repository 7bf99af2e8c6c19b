package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/wire"
)

// Edge cases of the eviction hash chain (Section IV-D): commands that
// skip ahead within the verifier's tolerance, commands beyond it, chain
// values delivered out of order, and the threshold authority's empty-CID
// refresh command. The invariant under test everywhere: a rejected
// command mutates nothing — not the chain verifier, not the key store.

// injectRevoke floods a raw TRevoke frame into the network from node 1.
func injectRevoke(t *testing.T, d *Deployment, rv *wire.Revoke) {
	t.Helper()
	body := rv.Marshal()
	pkt, err := (&wire.Frame{Type: wire.TRevoke, Payload: body}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d.Eng.Schedule(d.Eng.Now()+time.Millisecond, func() {
		d.Eng.InjectAt(1, node.ID(999), pkt)
	})
	if _, err := d.Eng.RunUntilIdle(5_000_000); err != nil {
		t.Fatal(err)
	}
}

// nonBSClusters returns the k lowest non-BS cluster IDs.
func nonBSClusters(t *testing.T, d *Deployment, k int) []uint32 {
	t.Helper()
	bsCID, _ := d.BS().Cluster()
	sizes := d.Clusters().Sizes
	cids := make([]uint32, 0, len(sizes))
	for c := range sizes {
		cids = append(cids, c)
	}
	slices.Sort(cids)
	var out []uint32
	for _, c := range cids {
		if c != bsCID {
			out = append(out, c)
		}
		if len(out) == k {
			break
		}
	}
	if len(out) < k {
		t.Skipf("need %d non-BS clusters, have %d", k, len(out))
	}
	return out
}

// TestRevocationOutOfOrderChainDelivery delivers K_3 before K_1: the
// skip-ahead command (within maxChainSkip) must be accepted, after which
// the stale lower-index value is a replay that deletes nothing.
func TestRevocationOutOfOrderChainDelivery(t *testing.T) {
	d := deploy(t, 60, 10, 211)
	victims := nonBSClusters(t, d, 2)

	k3, err := d.Auth.Chain().Reveal(3)
	if err != nil {
		t.Fatal(err)
	}
	injectRevoke(t, d, &wire.Revoke{Index: 3, ChainKey: k3, CIDs: []uint32{victims[0]}})
	for i, s := range d.Sensors {
		if _, known := s.KeyStore().KeyFor(victims[0]); known {
			t.Fatalf("node %d ignored the skip-ahead revocation", i)
		}
	}

	// Now the out-of-order K_1 arrives, naming a different cluster: the
	// commitment has moved past it, so it must change nothing.
	k1, err := d.Auth.Chain().Reveal(1)
	if err != nil {
		t.Fatal(err)
	}
	injectRevoke(t, d, &wire.Revoke{Index: 1, ChainKey: k1, CIDs: []uint32{victims[1]}})
	held := 0
	for _, s := range d.Sensors {
		if _, known := s.KeyStore().KeyFor(victims[1]); known {
			held++
		}
	}
	if held == 0 {
		t.Fatal("stale chain value evicted a cluster")
	}
}

// TestRevocationBeyondSkipWindowRejected injects a genuine chain value
// from beyond the verifier's maxChainSkip horizon: sensors must reject
// it without consuming any verifier state, so a later in-window command
// still lands.
func TestRevocationBeyondSkipWindowRejected(t *testing.T) {
	d := deploy(t, 60, 10, 223)
	victims := nonBSClusters(t, d, 2)

	// The skip window ends at index maxChainSkip.
	const farIndex = maxChainSkip + 3
	far, err := d.Auth.Chain().Reveal(farIndex)
	if err != nil {
		t.Fatal(err)
	}
	injectRevoke(t, d, &wire.Revoke{Index: farIndex, ChainKey: far, CIDs: []uint32{victims[0]}})
	for i, s := range d.Sensors {
		if cid, ok := s.Cluster(); ok && cid == victims[0] {
			if _, known := s.KeyStore().KeyFor(victims[0]); !known {
				t.Fatalf("node %d accepted a chain value beyond the skip window", i)
			}
		}
	}

	// The rejected command must not have perturbed the verifier: an
	// in-window command is still accepted by everyone.
	k1, err := d.Auth.Chain().Reveal(1)
	if err != nil {
		t.Fatal(err)
	}
	injectRevoke(t, d, &wire.Revoke{Index: 1, ChainKey: k1, CIDs: []uint32{victims[1]}})
	for i, s := range d.Sensors {
		if _, known := s.KeyStore().KeyFor(victims[1]); known {
			t.Fatalf("node %d rejected a valid command after a beyond-window attempt", i)
		}
	}
}

// TestRevocationReplayExactBytesHarmless replays the exact wire bytes of
// an accepted revocation: the monotone chain commitment makes the copy a
// no-op, and epochs/keys of every other cluster stay untouched.
func TestRevocationReplayExactBytesHarmless(t *testing.T) {
	d := deploy(t, 60, 10, 227)
	victims := nonBSClusters(t, d, 2)

	k1, err := d.Auth.Chain().Reveal(1)
	if err != nil {
		t.Fatal(err)
	}
	rv := &wire.Revoke{Index: 1, ChainKey: k1, CIDs: []uint32{victims[0]}}
	injectRevoke(t, d, rv)

	// Snapshot the survivors' view, replay verbatim, compare.
	type view struct {
		keys  int
		epoch uint32
	}
	before := make(map[int]view)
	for i, s := range d.Sensors {
		before[i] = view{keys: s.ClusterKeyCount(), epoch: s.Epoch(victims[1])}
	}
	injectRevoke(t, d, rv)
	for i, s := range d.Sensors {
		if got := (view{keys: s.ClusterKeyCount(), epoch: s.Epoch(victims[1])}); got != before[i] {
			t.Fatalf("node %d key state changed on replay: %+v -> %+v", i, before[i], got)
		}
	}
}

// TestRefreshCommandRotatesKeys is the threshold authority's CmdRefresh
// rendering: a chain-authenticated Revoke with no CIDs orders a
// network-wide hash refresh instead of an eviction. Every operational
// node rotates; a replay of the same command is spent and rotates
// nothing a second time.
func TestRefreshCommandRotatesKeys(t *testing.T) {
	d := deploy(t, 60, 10, 229)
	epochsBefore := make([]uint32, len(d.Sensors))
	for i, s := range d.Sensors {
		if cid, ok := s.Cluster(); ok {
			epochsBefore[i] = s.Epoch(cid)
		}
	}
	k1, err := d.Auth.Chain().Reveal(1)
	if err != nil {
		t.Fatal(err)
	}
	rv := &wire.Revoke{Index: 1, ChainKey: k1}
	injectRevoke(t, d, rv)
	rotated := 0
	for i, s := range d.Sensors {
		if cid, ok := s.Cluster(); ok {
			if s.Epoch(cid) == epochsBefore[i]+1 {
				rotated++
			} else if s.Epoch(cid) != epochsBefore[i] {
				t.Fatalf("node %d rotated %d times", i, s.Epoch(cid)-epochsBefore[i])
			}
		}
	}
	if rotated < len(d.Sensors)*8/10 {
		t.Fatalf("only %d/%d nodes applied the refresh command", rotated, len(d.Sensors))
	}
	// Readings still flow on the rotated keys.
	if got := sendAndCount(t, d, 5, []byte("post-refresh")); got != 1 {
		t.Fatalf("delivery after refresh command: %d", got)
	}
	// Replay: the chain value is spent, nobody rotates again.
	mid := make([]uint32, len(d.Sensors))
	for i, s := range d.Sensors {
		if cid, ok := s.Cluster(); ok {
			mid[i] = s.Epoch(cid)
		}
	}
	injectRevoke(t, d, rv)
	for i, s := range d.Sensors {
		if cid, ok := s.Cluster(); ok && s.Epoch(cid) != mid[i] {
			t.Fatalf("node %d rotated on a replayed refresh command", i)
		}
	}
}

// TestRevokeDuringRepairElectionDoesNotResurrectKey races the two
// recovery paths for the same cluster: the head crashes, its members
// start a repair election, and while candidacy delays are still pending
// the authority's chain-authenticated REVOKE for that cluster arrives.
// The eviction must win — no member may complete the election and
// re-announce headship under the revoked key, and nobody in the network
// may still hold it (claimHeadship's InCluster guard is what this
// pins). The keep-alive config keeps the engine from idling, so the
// test drives bounded horizons instead of injectRevoke's RunUntilIdle.
func TestRevokeDuringRepairElectionDoesNotResurrectKey(t *testing.T) {
	d, err := Deploy(DeployOptions{N: 60, Density: 10, Seed: 31, Config: repairConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	head, members := pickVictimCluster(t, d, 2)
	cid := uint32(head)

	claims := 0
	for _, i := range members {
		d.Sensors[i].OnRepaired = func(uint32, node.ID, time.Duration) { claims++ }
	}

	cfg := repairConfig()
	miss := KeepAliveMisses * cfg.KeepAlivePeriod
	crashAt := d.Eng.Now() + 50*time.Millisecond
	d.Eng.Schedule(crashAt, func() { d.Eng.Crash(head) })

	// The members notice the silence one keep-alive tick after the miss
	// budget and enter their exponential candidacy delays; land the
	// REVOKE right in that window.
	k1, err := d.Auth.Chain().Reveal(1)
	if err != nil {
		t.Fatal(err)
	}
	rv := &wire.Revoke{Index: 1, ChainKey: k1, CIDs: []uint32{cid}}
	pkt, err := (&wire.Frame{Type: wire.TRevoke, Payload: rv.Marshal()}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	revokeAt := crashAt + miss + cfg.KeepAlivePeriod + 20*time.Millisecond
	d.Eng.Schedule(revokeAt, func() {
		d.Eng.InjectAt(1, node.ID(999), pkt)
	})
	d.Eng.Run(revokeAt + 2*time.Second)

	// The revoked key must be gone from every live node — including
	// members whose candidacy timer fired after the eviction landed.
	// (The crashed head's frozen in-memory state is out of scope: a dead
	// radio processes nothing.)
	for i, s := range d.Sensors {
		if s == nil || !d.Eng.Alive(i) {
			continue
		}
		if _, known := s.KeyStore().KeyFor(cid); known {
			t.Errorf("node %d still holds revoked cluster %d's key", i, cid)
		}
	}
	// No member may have won the race: a claim after eviction would
	// re-announce headship under a key the authority just killed.
	for _, i := range members {
		s := d.Sensors[i]
		if got, in := s.Cluster(); in && got == cid {
			t.Errorf("member %d still believes in revoked cluster %d", i, cid)
		}
		if s.Head() == s.ID() && !s.Evicted() {
			t.Errorf("member %d claimed headship despite the revocation", i)
		}
	}
	t.Logf("repair claims that beat the revoke: %d (benign either way)", claims)

	// The chain verifier must have consumed exactly one commitment step:
	// a follow-up in-window command for a different cluster still lands.
	rest := nonBSClusters(t, d, 2)
	other := rest[0]
	if other == cid {
		other = rest[1]
	}
	k2, err := d.Auth.Chain().Reveal(2)
	if err != nil {
		t.Fatal(err)
	}
	rv2 := &wire.Revoke{Index: 2, ChainKey: k2, CIDs: []uint32{other}}
	pkt2, err := (&wire.Frame{Type: wire.TRevoke, Payload: rv2.Marshal()}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	at2 := d.Eng.Now() + time.Millisecond
	d.Eng.Schedule(at2, func() { d.Eng.InjectAt(1, node.ID(999), pkt2) })
	d.Eng.Run(at2 + 2*time.Second)
	// Same scope as above: the crashed head never hears the follow-up.
	for i, s := range d.Sensors {
		if s == nil || !d.Eng.Alive(i) {
			continue
		}
		if _, known := s.KeyStore().KeyFor(other); known {
			t.Errorf("node %d ignored the follow-up revocation after the race", i)
		}
	}
}
