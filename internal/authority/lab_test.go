package authority

import (
	"testing"
	"time"

	"repro/internal/crypt"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
)

// completeGraph returns n nodes all within radio range of each other —
// the committee's backhaul.
func completeGraph(n int) *topology.Graph {
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i) * 0.1, Y: 0}
	}
	return topology.FromPositions(pos, 10, 1.0, geom.Planar)
}

// labCommittee builds n replicas with t-of-n chain shares over a fresh
// chain and hosts them on a Lab.
func labCommittee(t *testing.T, tt, n int, seed uint64, reg *obs.Registry, tweak func(i int, cfg *ReplicaConfig)) (*transport.Lab, []*Replica, *crypt.Chain) {
	t.Helper()
	chain := crypt.NewChain(testSeed(200), 16)
	css := SplitChain(chain, tt, n, testSeed(201))
	replicas := make([]*Replica, n)
	behaviors := make([]node.Behavior, n)
	for i := range replicas {
		cfg := ReplicaConfig{
			T: tt, N: n, Index: i + 1,
			Seed:     testSeed(byte(210 + i)),
			Chain:    css[i],
			RoundGap: 50 * time.Millisecond,
			Registry: reg,
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		replicas[i] = NewReplica(cfg)
		behaviors[i] = replicas[i]
	}
	lab, err := transport.NewLab(transport.LabConfig{Graph: completeGraph(n), Seed: seed}, behaviors)
	if err != nil {
		t.Fatalf("NewLab: %v", err)
	}
	return lab, replicas, chain
}

func TestLabDKGConverges(t *testing.T) {
	reg := obs.NewRegistry()
	lab, replicas, _ := labCommittee(t, 2, 3, 3, reg, nil)
	lab.Run(500 * time.Millisecond)
	for i, r := range replicas {
		if !r.Ready() {
			t.Fatalf("replica %d not ready after DKG window", i+1)
		}
		if r.Result().Y.Cmp(replicas[0].Result().Y) != 0 {
			t.Fatalf("replica %d disagrees on the authority key", i+1)
		}
	}
	if v := reg.Counter("authority_dkg_rounds_total", "").Value(); v == 0 {
		t.Fatal("authority_dkg_rounds_total not counted")
	}
}

// TestLabEvictionWithCrashedReplica is the t=2/n=3 resilience claim:
// one replica crashed outright, the two survivors still authorize an
// eviction that the sensor-side chain verifier accepts.
func TestLabEvictionWithCrashedReplica(t *testing.T) {
	lab, replicas, chain := labCommittee(t, 2, 3, 17, nil, nil)
	lab.ScheduleCrash(250*time.Millisecond, 1) // replica index 2 dies after DKG
	lab.Do(400*time.Millisecond, 0, func(ctx node.Context) {
		if !replicas[0].Propose(ctx, wire.CmdEvict, 1, []uint32{7, 9}, []int{1, 3}) {
			t.Error("Propose refused on a ready replica")
		}
	})
	lab.Run(600 * time.Millisecond)

	for _, i := range []int{0, 2} {
		cmds := replicas[i].Commands
		if len(cmds) != 1 {
			t.Fatalf("replica %d adopted %d commands, want 1", i+1, len(cmds))
		}
		sc := cmds[0]
		if sc.Cmd.Index != 1 || len(sc.Cmd.CIDs) != 2 {
			t.Fatalf("replica %d adopted wrong command: %+v", i+1, sc.Cmd)
		}
		if !sc.Verify(replicas[i].Result().Y) {
			t.Fatalf("replica %d stored an unverifiable command", i+1)
		}
		v := crypt.NewChainVerifier(chain.Commitment(), 4)
		if _, ok := v.Accept(sc.ChainKey); !ok {
			t.Fatalf("replica %d released a chain key sensors reject", i+1)
		}
		if replicas[i].NextChain() != 1 {
			t.Fatalf("replica %d approval counter = %d", i+1, replicas[i].NextChain())
		}
	}
}

// TestLabDKGSurvivesCrashBeforeDealing exercises the complaint path: a
// replica that dies before dealing is disqualified by the missing-deal
// complaints and the survivors finish with QUAL = the other two.
func TestLabDKGSurvivesCrashBeforeDealing(t *testing.T) {
	lab, replicas, chain := labCommittee(t, 2, 3, 101, nil, nil)
	lab.ScheduleCrash(10*time.Millisecond, 1) // before the deal round at 50ms
	lab.Do(400*time.Millisecond, 2, func(ctx node.Context) {
		replicas[2].Propose(ctx, wire.CmdEvict, 1, []uint32{3}, []int{1, 3})
	})
	lab.Run(600 * time.Millisecond)

	for _, i := range []int{0, 2} {
		if !replicas[i].Ready() {
			t.Fatalf("replica %d not ready despite 2 live dealers", i+1)
		}
		qual := replicas[i].Result().QUAL
		if len(qual) != 2 || qual[0] != 1 || qual[1] != 3 {
			t.Fatalf("replica %d QUAL = %v, want [1 3]", i+1, qual)
		}
		if len(replicas[i].Commands) != 1 {
			t.Fatalf("replica %d adopted %d commands", i+1, len(replicas[i].Commands))
		}
		v := crypt.NewChainVerifier(chain.Commitment(), 4)
		if _, ok := v.Accept(replicas[i].Commands[0].ChainKey); !ok {
			t.Fatalf("replica %d chain key rejected", i+1)
		}
	}
}

// TestLabDisqualifiesCorruptDealer runs the adversary knobs end to end:
// a dealer that hands out a bad share and refuses to justify is excluded
// from QUAL by every honest replica, and the command path still works.
func TestLabDisqualifiesCorruptDealer(t *testing.T) {
	reg := obs.NewRegistry()
	lab, replicas, _ := labCommittee(t, 2, 3, 7, reg, func(i int, cfg *ReplicaConfig) {
		if i == 1 {
			cfg.CorruptShareTo = 3
			cfg.SkipJustify = true
		}
	})
	lab.Do(400*time.Millisecond, 0, func(ctx node.Context) {
		replicas[0].Propose(ctx, wire.CmdRefresh, 1, nil, []int{1, 3})
	})
	lab.Run(600 * time.Millisecond)

	for _, i := range []int{0, 2} {
		if !replicas[i].Ready() {
			t.Fatalf("replica %d not ready", i+1)
		}
		qual := replicas[i].Result().QUAL
		if len(qual) != 2 || qual[0] != 1 || qual[1] != 3 {
			t.Fatalf("replica %d QUAL = %v, want [1 3]", i+1, qual)
		}
		if len(replicas[i].Commands) != 1 || replicas[i].Commands[0].Cmd.Kind != wire.CmdRefresh {
			t.Fatalf("replica %d refresh command missing", i+1)
		}
		if len(replicas[i].Commands[0].Revoke().CIDs) != 0 {
			t.Fatal("refresh command rendered with CIDs")
		}
	}
	if reg.Counter("authority_complaints_total", "").Value() == 0 {
		t.Fatal("corrupt dealing produced no complaint metric")
	}
}

// TestLabJustifiedDealerStaysQualified: same corruption, but the dealer
// answers the complaint — all three stay in QUAL.
func TestLabJustifiedDealerStaysQualified(t *testing.T) {
	lab, replicas, _ := labCommittee(t, 2, 3, 23, nil, func(i int, cfg *ReplicaConfig) {
		if i == 1 {
			cfg.CorruptShareTo = 3
		}
	})
	lab.Run(400 * time.Millisecond)
	for i, r := range replicas {
		if !r.Ready() {
			t.Fatalf("replica %d not ready", i+1)
		}
		if len(r.Result().QUAL) != 3 {
			t.Fatalf("replica %d QUAL = %v, want all three", i+1, r.Result().QUAL)
		}
		if r.Result().Y.Cmp(replicas[0].Result().Y) != 0 {
			t.Fatalf("replica %d key mismatch", i+1)
		}
	}
}

// TestLabForgeryFailsClosed: t−1 colluding replicas (here: one captured
// machine at t=2) try every avenue short of the honest protocol; nothing
// they produce is accepted by sensors or by honest replicas.
func TestLabForgeryFailsClosed(t *testing.T) {
	lab, replicas, chain := labCommittee(t, 2, 3, 31, nil, nil)
	lab.Run(300 * time.Millisecond) // DKG done; no commands issued

	captured := replicas[2] // full state of one replica
	v := crypt.NewChainVerifier(chain.Commitment(), 4)

	// Avenue 1: replay its chain share as the revealed key.
	share, err := captured.ChainShares().Share(1)
	if err != nil {
		t.Fatalf("Share: %v", err)
	}
	if _, ok := v.Accept(crypt.KeyFromBytes(share)); ok {
		t.Fatal("sensor accepted a bare chain share")
	}
	// Avenue 2: a single-signer session is structurally impossible.
	cmd := &wire.AuthorityCommand{Kind: wire.CmdEvict, Session: 1, Index: 1, CIDs: []uint32{1}}
	if _, err := NewSession(captured.Result(), captured.ChainShares(), cmd, []int{3}); err == nil {
		t.Fatal("single-signer session opened")
	}
	// Avenue 3: sign with the captured share alone.
	k := scalarFromPRF(captured.Result().NonceSeed, []byte("forge"))
	r := exp(groupG, k)
	c := hashToScalar(r, captured.Result().Y, cmd.Marshal())
	forged := &Signature{R: r, Z: addQ(k, mulQ(c, captured.Result().X))}
	if forged.Verify(captured.Result().Y, cmd.Marshal()) {
		t.Fatal("single-share signature verified")
	}
	// Avenue 4: no replica combined anything without a quorum.
	for i, rep := range replicas {
		if len(rep.Commands) != 0 {
			t.Fatalf("replica %d adopted a command nobody proposed", i+1)
		}
	}
}

// TestLabReshareHandsOffCommittee: the full churn story on the wire —
// DKG, an eviction, then resharing 2-of-3 onto a committee where a
// fresh joiner replaces a retiring member, then a second eviction signed
// by the joiner. The authority key and the sensors' chain commitment
// never change.
func TestLabReshareHandsOffCommittee(t *testing.T) {
	reg := obs.NewRegistry()
	chain := crypt.NewChain(testSeed(200), 16)
	css := SplitChain(chain, 2, 3, testSeed(201))

	replicas := make([]*Replica, 4)
	behaviors := make([]node.Behavior, 4)
	for i := 0; i < 3; i++ {
		replicas[i] = NewReplica(ReplicaConfig{
			T: 2, N: 3, Index: i + 1,
			Seed:     testSeed(byte(210 + i)),
			Chain:    css[i],
			RoundGap: 50 * time.Millisecond,
			Registry: reg,
		})
		behaviors[i] = replicas[i]
	}
	// Lab node 3 is the fresh machine, wire identity 4.
	replicas[3] = NewReplica(ReplicaConfig{
		Index:    4,
		Seed:     testSeed(250),
		RoundGap: 50 * time.Millisecond,
		Registry: reg,
		Joiner:   true,
	})
	behaviors[3] = replicas[3]

	lab, err := transport.NewLab(transport.LabConfig{Graph: completeGraph(4), Seed: 3}, behaviors)
	if err != nil {
		t.Fatalf("NewLab: %v", err)
	}
	lab.Do(300*time.Millisecond, 0, func(ctx node.Context) {
		replicas[0].Propose(ctx, wire.CmdEvict, 1, []uint32{5}, []int{1, 2})
	})
	// Reshare: old members 1 and 2 continue (dealers), member 3 retires,
	// identity 4 joins as new index 3.
	lab.Do(400*time.Millisecond, 0, func(ctx node.Context) {
		if !replicas[0].StartReshare(ctx, 11, 2, 3, []int{1, 2}, []int{1, 2, 4}) {
			t.Error("StartReshare refused")
		}
	})
	lab.Do(600*time.Millisecond, 1, func(ctx node.Context) {
		replicas[1].Propose(ctx, wire.CmdEvict, 2, []uint32{6}, []int{2, 3})
	})
	lab.Run(800 * time.Millisecond)

	if !replicas[3].Ready() {
		t.Fatal("joiner not provisioned by the reshare")
	}
	if replicas[3].Result().Y.Cmp(replicas[0].Result().Y) != 0 {
		t.Fatal("reshare changed the authority key")
	}
	if replicas[2].Ready() {
		t.Fatal("retired member still holds authority state")
	}
	// Both evictions adopted, in order, by the continuing members and the
	// joiner saw at least the post-reshare one.
	v := crypt.NewChainVerifier(chain.Commitment(), 4)
	for want, sc := range replicas[0].Commands {
		if int(sc.Cmd.Index) != want+1 {
			t.Fatalf("command %d has index %d", want, sc.Cmd.Index)
		}
		if _, ok := v.Accept(sc.ChainKey); !ok {
			t.Fatalf("chain key for index %d rejected by sensor verifier", sc.Cmd.Index)
		}
	}
	if len(replicas[0].Commands) != 2 {
		t.Fatalf("continuing member adopted %d commands, want 2", len(replicas[0].Commands))
	}
	if n := len(replicas[3].Commands); n != 1 {
		t.Fatalf("joiner adopted %d commands, want 1 (post-reshare)", n)
	}
	if reg.Counter("authority_reshares_total", "").Value() == 0 {
		t.Fatal("authority_reshares_total not counted")
	}
}
