package core

import (
	"testing"

	"repro/internal/crypt"
	"repro/internal/node"
)

func TestAuthorityDeterministic(t *testing.T) {
	a := AuthorityFromSeed(42, 16)
	b := AuthorityFromSeed(42, 16)
	if !a.NodeKey(7).Equal(b.NodeKey(7)) {
		t.Fatal("same seed produced different node keys")
	}
	if !a.ClusterKeyOf(7).Equal(b.ClusterKeyOf(7)) {
		t.Fatal("same seed produced different cluster keys")
	}
	if !a.Chain().Commitment().Equal(b.Chain().Commitment()) {
		t.Fatal("same seed produced different chains")
	}
	c := AuthorityFromSeed(43, 16)
	if a.NodeKey(7).Equal(c.NodeKey(7)) {
		t.Fatal("different seeds produced identical node keys")
	}
}

func TestAuthorityKeySeparation(t *testing.T) {
	a := AuthorityFromSeed(1, 16)
	seen := map[crypt.Key]string{}
	record := func(k crypt.Key, name string) {
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %s and %s", prev, name)
		}
		seen[k] = name
	}
	for id := node.ID(0); id < 50; id++ {
		record(a.NodeKey(id), "node key")
		record(a.ClusterKeyOf(uint32(id)), "cluster key")
	}
	m := a.MaterialFor(3)
	record(m.Master, "Km")
	record(m.ChainCommit, "K0")
}

func TestMaterialRoles(t *testing.T) {
	a := AuthorityFromSeed(2, 16)
	orig := a.MaterialFor(5)
	if orig.Master.IsZero() {
		t.Fatal("original node missing Km")
	}
	if !orig.AddMaster.IsZero() {
		t.Fatal("original node carries KMC")
	}
	if !orig.CandidateClusterKey.Equal(a.ClusterKeyOf(5)) {
		t.Fatal("Kci != F(KMC, i)")
	}
	late := a.LateMaterialFor(6)
	if !late.Master.IsZero() {
		t.Fatal("late node carries Km")
	}
	if late.AddMaster.IsZero() {
		t.Fatal("late node missing KMC")
	}
	if !late.ChainCommit.Equal(orig.ChainCommit) {
		t.Fatal("chain commitments differ")
	}
}

func TestLateNodeCanDeriveClusterKeys(t *testing.T) {
	// The Section IV-E property: F(KMC, i) computed by a late node from
	// its KMC must equal the candidate cluster key of original node i.
	a := AuthorityFromSeed(3, 16)
	late := a.LateMaterialFor(100)
	for id := uint32(0); id < 20; id++ {
		derived := crypt.DeriveID(late.AddMaster, crypt.LabelCluster, id)
		if !derived.Equal(a.ClusterKeyOf(id)) {
			t.Fatalf("late-derived cluster key for %d mismatches authority", id)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.HelloMeanDelay <= 0 || c.ClusterPhaseEnd <= 0 || c.LinkSpread <= 0 {
		t.Fatal("setup timings not defaulted")
	}
	if c.OperationalAt != c.ClusterPhaseEnd+c.LinkSpread+50e6 {
		t.Fatalf("OperationalAt = %v", c.OperationalAt)
	}
	if c.FreshWindow <= 0 || c.ChainLength <= 0 {
		t.Fatal("operational parameters not defaulted")
	}
	// Explicit values survive.
	c2 := Config{ChainLength: 7}.withDefaults()
	if c2.ChainLength != 7 {
		t.Fatal("explicit ChainLength overwritten")
	}
}

func TestPhaseString(t *testing.T) {
	for p, want := range map[Phase]string{
		PhaseElection:    "election",
		PhaseDecided:     "decided",
		PhaseOperational: "operational",
		PhaseJoining:     "joining",
		PhaseFailed:      "failed",
		Phase(99):        "unknown",
	} {
		if got := p.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", p, got, want)
		}
	}
}
