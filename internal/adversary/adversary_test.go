package adversary

import (
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/baseline/globalkey"
	"repro/internal/baseline/randomkp"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/node"
	"repro/internal/wire"
	"repro/internal/xrand"
)

func setup(t *testing.T, n int, density float64, seed uint64) *core.Deployment {
	t.Helper()
	d, err := core.Deploy(core.DeployOptions{N: n, Density: density, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSchemeInterfaceCompliance(t *testing.T) {
	var _ baseline.Scheme = (*ProtocolScheme)(nil)
}

func TestCaptureIsLocal(t *testing.T) {
	d := setup(t, 200, 12, 1)
	s := NewProtocolScheme(d)
	rep := s.Capture([]int{50})
	if rep.TotalLinks == 0 {
		t.Fatal("no links")
	}
	frac := rep.Fraction()
	if frac == 0 {
		// The captured node's neighbor-cluster traffic leaks, so in a
		// 200-node network some small fraction should be readable.
		t.Log("capture leaked nothing (captured node may be isolated in key terms)")
	}
	if frac > 0.25 {
		t.Fatalf("single capture compromised %v of a 200-node network", frac)
	}
}

func TestCaptureRevealsExactlyHeldClusters(t *testing.T) {
	d := setup(t, 120, 10, 3)
	s := NewProtocolScheme(d)
	victim := 30
	revealed := s.RevealedClusters([]int{victim})
	sn := d.Sensors[victim]
	cid, _ := sn.Cluster()
	if !revealed[cid] {
		t.Fatal("own cluster not revealed")
	}
	for _, nc := range sn.NeighborClusters() {
		if !revealed[nc] {
			t.Fatalf("held neighbor cluster %d not revealed", nc)
		}
	}
	if len(revealed) != sn.ClusterKeyCount() {
		t.Fatalf("revealed %d clusters, node held %d keys", len(revealed), sn.ClusterKeyCount())
	}
}

func TestLocalityBeatsBaselines(t *testing.T) {
	// The paper's central comparison, stated in its own terms: "key
	// material from one part of the network cannot be used to disrupt
	// communications to some other part of it." So (a) the global key
	// collapses totally, (b) random predistribution compromises links
	// arbitrarily far from the captures, and (c) the localized protocol
	// compromises NOTHING beyond the captures' three-hop key horizon.
	d := setup(t, 1000, 12, 5)
	ours := NewProtocolScheme(d)
	gk := globalkey.New(d.Graph)
	// Classic EG parameters (m^2/P ~ 1, one shared key per link).
	rk, err := randomkp.New(d.Graph, randomkp.Params{PoolSize: 10000, RingSize: 100, Q: 1}, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	captured := xrand.New(7).Sample(d.Graph.N(), 25)

	if f := gk.Capture(captured).Fraction(); f != 1.0 {
		t.Fatalf("global key fraction %v, want 1.0", f)
	}
	const horizon = 4
	remoteOurs := ours.CaptureBeyond(captured, horizon)
	remoteRK := rk.CaptureBeyond(captured, horizon)
	if remoteOurs.CompromisedLinks != 0 {
		t.Fatalf("localized protocol compromised %d remote links", remoteOurs.CompromisedLinks)
	}
	if remoteRK.CompromisedLinks == 0 {
		t.Fatal("random KP compromised no remote links; parameters degenerate")
	}
	if f := ours.Capture(captured).Fraction(); f >= 1.0 {
		t.Fatalf("localized full fraction %v", f)
	}
}

func TestCompromiseGrowsSublinearlyWithDistance(t *testing.T) {
	// Capturing nodes in one corner must not compromise links whose
	// sender cluster is far away: verify zero compromise outside the
	// captured nodes' 2-hop key horizon.
	d := setup(t, 200, 12, 9)
	s := NewProtocolScheme(d)
	captured := []int{10}
	revealed := s.RevealedClusters(captured)
	// Every revealed cluster must be the victim's own or a bordering one.
	sn := d.Sensors[10]
	legit := map[uint32]bool{}
	if cid, ok := sn.Cluster(); ok {
		legit[cid] = true
	}
	for _, nc := range sn.NeighborClusters() {
		legit[nc] = true
	}
	for cid := range revealed {
		if !legit[cid] {
			t.Fatalf("capture revealed remote cluster %d", cid)
		}
	}
}

func TestClonePlacementConfined(t *testing.T) {
	// Locality is absolute: a captured node's keys work in a
	// fixed-size geographic neighborhood, so the usable FRACTION of the
	// field must shrink as the network (at constant density) grows.
	fracAt := func(n int, seed uint64) float64 {
		d := setup(t, n, 12, seed)
		s := NewProtocolScheme(d)
		rep := s.ClonePlacement([]int{n / 3})
		if rep.UsablePositions == 0 {
			t.Fatal("clone unusable even at home")
		}
		return rep.Fraction()
	}
	small := fracAt(250, 11)
	large := fracAt(1000, 12)
	if large >= small {
		t.Fatalf("clone reach fraction did not shrink with size: %v -> %v", small, large)
	}
	if large > 0.15 {
		t.Fatalf("clone usable at %v of a 1000-node field", large)
	}
}

func TestClonePlacementGrowsWithCaptures(t *testing.T) {
	d := setup(t, 250, 12, 13)
	s := NewProtocolScheme(d)
	rng := xrand.New(14)
	f1 := s.ClonePlacement(rng.Sample(250, 2)).Fraction()
	f2 := s.ClonePlacement(rng.Sample(250, 30)).Fraction()
	if f2 <= f1 {
		t.Fatalf("clone reach did not grow with captures: %v vs %v", f1, f2)
	}
}

func TestCompromiseNodesSkipsBS(t *testing.T) {
	d := setup(t, 60, 10, 15)
	CompromiseNodes(d, []int{d.BSIndex, 5})
	if d.BS().Malice.DropData {
		t.Fatal("base station flagged as dropper")
	}
	if !d.Sensors[5].Malice.DropData {
		t.Fatal("node 5 not flagged")
	}
}

func TestCaptureEverythingCompromisesEverything(t *testing.T) {
	d := setup(t, 80, 10, 17)
	s := NewProtocolScheme(d)
	// Capture all but a handful of nodes: the remainder's clusters are
	// certainly revealed through shared membership.
	var captured []int
	for i := 5; i < 80; i++ {
		captured = append(captured, i)
	}
	rep := s.Capture(captured)
	if rep.TotalLinks > 0 && rep.Fraction() < 0.9 {
		t.Fatalf("near-total capture compromised only %v", rep.Fraction())
	}
}

// TestSybilIdentityForgeryFails is the paper's Sybil argument (Section
// VI): "Since every node shares a unique symmetric key with the trusted
// base station, a single node cannot present multiple identities." A
// compromised node that claims another origin in its Step-1 envelope
// fails the base station's key check.
func TestSybilIdentityForgeryFails(t *testing.T) {
	d := setup(t, 80, 12, 19)
	// The adversary fully controls node `mole` (captured, keys known)
	// and tries to impersonate node `victim` toward the base station.
	var mole int
	for _, nb := range d.Graph.Neighbors(d.BSIndex) {
		mole = int(nb)
		break
	}
	victim := uint32(61)
	ms := d.Sensors[mole]
	cid, _ := ms.Cluster()
	kc, _ := ms.KeyStore().KeyFor(cid)
	ki := ms.KeyStore().NodeKey // the mole's own Ki — NOT the victim's

	inner := &wire.Inner{Src: victim, Counter: 1, Encrypted: true,
		Sealed: crypt.Seal(ki, 1, core.InnerAAD(victim), []byte("forged-as-victim"))}
	dd := &wire.Data{SrcCID: cid, Hop: 5, Readings: []wire.Reading{{Origin: victim, Seq: 424242, Inner: inner.Marshal()}}}
	before := len(d.Deliveries())
	d.Eng.Schedule(d.Eng.Now()+time.Millisecond, func() {
		dd.Tau = int64(d.Eng.Now())
		nonce := uint64(mole)<<32 | 0xABCD
		sealed := crypt.Seal(kc, nonce, core.FrameAAD(wire.TData, cid), dd.Marshal())
		pkt, _ := (&wire.Frame{Type: wire.TData, CID: cid, Nonce: nonce, Payload: sealed}).Marshal()
		d.Eng.InjectAt(mole, node.ID(mole), pkt)
	})
	if _, err := d.Eng.RunUntilIdle(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(d.Deliveries()) != before {
		t.Fatal("base station accepted a Sybil identity")
	}
}
