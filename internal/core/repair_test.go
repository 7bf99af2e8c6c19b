package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/node"
	"repro/internal/sim"
)

// repairConfig enables the self-healing machinery with a fast cadence so
// tests converge in little virtual time.
func repairConfig() Config {
	cfg := DefaultConfig()
	cfg.KeepAlivePeriod = 100 * time.Millisecond
	cfg.BeaconPeriod = time.Second
	return cfg
}

// pickVictimCluster returns a clusterhead (graph index) that is not the
// base station and has at least minMembers other members, plus those
// members' indices. Clusters are tried in CID order, so the pick is the
// same on every run.
func pickVictimCluster(t *testing.T, d *Deployment, minMembers int) (int, []int) {
	t.Helper()
	members := make(map[uint32][]int)
	for i, s := range d.Sensors {
		if s == nil || i == d.BSIndex {
			continue
		}
		if cid, ok := s.Cluster(); ok {
			members[cid] = append(members[cid], i)
		}
	}
	cids := make([]uint32, 0, len(members))
	for cid := range members {
		cids = append(cids, cid)
	}
	slices.Sort(cids)
	for _, cid := range cids {
		mm := members[cid]
		head := int(cid)
		if head == d.BSIndex || head >= len(d.Sensors) {
			continue
		}
		rest := make([]int, 0, len(mm))
		for _, i := range mm {
			if i != head {
				rest = append(rest, i)
			}
		}
		if len(rest) >= minMembers {
			return head, rest
		}
	}
	t.Skip("no suitable cluster in this topology; adjust seed")
	return 0, nil
}

// TestClusterRepairAfterHeadCrash is the acceptance scenario: a cluster
// whose head crashes re-forms through a local repair election, resumes
// authenticated delivery to the base station, and never re-acquires the
// erased master key Km.
func TestClusterRepairAfterHeadCrash(t *testing.T) {
	d, err := Deploy(DeployOptions{N: 60, Density: 10, Seed: 11, Config: repairConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	head, members := pickVictimCluster(t, d, 2)
	cid := uint32(head)

	// Precondition: setup erased Km everywhere.
	for i, s := range d.Sensors {
		if !s.KeyStore().Master.IsZero() {
			t.Fatalf("node %d still holds Km after setup", i)
		}
	}
	keyBefore, _ := d.Sensors[members[0]].KeyStore().KeyFor(cid)

	// Observe repair elections.
	type repairEvent struct {
		newHead node.ID
		at      time.Duration
	}
	var repairs []repairEvent
	for _, i := range members {
		d.Sensors[i].OnRepaired = func(gotCID uint32, newHead node.ID, at time.Duration) {
			if gotCID != cid {
				t.Errorf("repair reported for cluster %d, want %d", gotCID, cid)
			}
			repairs = append(repairs, repairEvent{newHead, at})
		}
	}

	crashAt := d.Eng.Now() + 50*time.Millisecond
	d.Eng.Schedule(crashAt, func() { d.Eng.Crash(head) })
	// Run long enough for the miss budget to expire plus election slack.
	d.Eng.Run(crashAt + 10*repairConfig().KeepAlivePeriod + time.Second)

	if len(repairs) == 0 {
		t.Fatal("no member claimed headship after the head crashed")
	}
	latency := repairs[0].at - crashAt
	miss := KeepAliveMisses * repairConfig().KeepAlivePeriod
	if latency < miss {
		t.Fatalf("repair at %v after crash, before the %v miss budget expired", latency, miss)
	}
	t.Logf("repair latency %v (budget %v), %d claimant(s)", latency, miss, len(repairs))

	// Members converge on a living head; the cluster identity and key are
	// unchanged (the repair runs under the current cluster key).
	claimant := int(repairs[0].newHead)
	if !d.Eng.Alive(claimant) {
		t.Fatalf("claimant %d is not alive", claimant)
	}
	for _, i := range members {
		s := d.Sensors[i]
		if got, ok := s.Cluster(); !ok || got != cid {
			t.Fatalf("member %d left cluster %d", i, cid)
		}
		if h := s.Head(); int(h) == head {
			t.Errorf("member %d still believes the crashed head %d leads", i, head)
		}
		key, _ := s.KeyStore().KeyFor(cid)
		if key != keyBefore {
			t.Errorf("member %d changed cluster key during repair", i)
		}
	}

	// Authenticated delivery resumes from the repaired cluster.
	before := len(d.Deliveries())
	sendAt := d.Eng.Now() + 10*time.Millisecond
	d.SendReading(members[0], sendAt, []byte("post-repair"))
	d.Eng.Run(sendAt + 2*time.Second)
	got := d.Deliveries()[before:]
	found := false
	for _, del := range got {
		if del.Origin == node.ID(members[0]) && string(del.Data) == "post-repair" && del.Encrypted {
			found = true
		}
	}
	if !found {
		t.Fatal("repaired cluster's reading did not reach the base station authenticated")
	}

	// No Km anywhere: repair never resurrects the erased master key.
	for i, s := range d.Sensors {
		if !s.KeyStore().Master.IsZero() {
			t.Fatalf("node %d holds Km after repair", i)
		}
	}
}

// TestRepairedHeadDrivesRekeyRefresh verifies that after a repair the
// successor — not the dead original head — can run the re-keying refresh
// variant, because StartClusterRefresh follows the current head view.
func TestRepairedHeadDrivesRekeyRefresh(t *testing.T) {
	cfg := repairConfig()
	cfg.RefreshMode = RefreshRekey
	d, err := Deploy(DeployOptions{N: 60, Density: 10, Seed: 13, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	head, members := pickVictimCluster(t, d, 2)
	cid := uint32(head)

	crashAt := d.Eng.Now() + 50*time.Millisecond
	d.Eng.Schedule(crashAt, func() { d.Eng.Crash(head) })
	d.Eng.Run(crashAt + 10*cfg.KeepAlivePeriod + time.Second)

	var claimant *Sensor
	for _, i := range members {
		if d.Sensors[i].Repaired() {
			claimant = d.Sensors[i]
			break
		}
	}
	if claimant == nil {
		t.Fatal("no member took over headship")
	}
	epochBefore := claimant.Epoch(cid)
	keyBefore, _ := claimant.KeyStore().KeyFor(cid)

	started := false
	d.Eng.Do(d.Eng.Now()+10*time.Millisecond, int(claimant.ID()), func(ctx node.Context) {
		started = claimant.StartClusterRefresh(ctx)
	})
	d.Eng.Run(d.Eng.Now() + time.Second)
	if !started {
		t.Fatal("repaired head refused to start a re-keying refresh")
	}
	for _, i := range members {
		s := d.Sensors[i]
		if s.Epoch(cid) != epochBefore+1 {
			t.Errorf("member %d at epoch %d, want %d", i, s.Epoch(cid), epochBefore+1)
			continue
		}
		key, _ := s.KeyStore().KeyFor(cid)
		if key == keyBefore {
			t.Errorf("member %d kept the old cluster key after re-key", i)
		}
	}
}

// TestCrashedHeadRebootDemotesToLowerClaimant checks convergence when the
// original head warm-reboots after a successor was elected: the two
// asserting heads resolve by lowest-ID-wins, under the unchanged cluster
// key, with no election storm.
func TestCrashedHeadRebootDemotesToLowerClaimant(t *testing.T) {
	cfg := repairConfig()
	plan := &faults.Plan{}
	d, err := Deploy(DeployOptions{N: 60, Density: 10, Seed: 17, Config: cfg, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	head, members := pickVictimCluster(t, d, 2)

	crashAt := d.Eng.Now() + 50*time.Millisecond
	rebootAt := crashAt + 10*cfg.KeepAlivePeriod + time.Second
	d.Eng.Schedule(crashAt, func() { d.Eng.Crash(head) })
	d.Eng.Schedule(rebootAt, func() { d.Eng.Reboot(head) })
	// Give the rebooted head and the successor several keep-alive rounds
	// to resolve the dual-head window.
	d.Eng.Run(rebootAt + 10*cfg.KeepAlivePeriod)

	// Whoever has the lowest ID among current claimants should hold the
	// role; everyone in radio range of both must agree with a living head.
	for _, i := range append([]int{head}, members...) {
		s := d.Sensors[i]
		h := int(s.Head())
		if !d.Eng.Alive(h) {
			t.Errorf("member %d follows dead head %d", i, h)
		}
	}
	// The rebooted original head must not have recovered Km.
	if !d.Sensors[head].KeyStore().Master.IsZero() {
		t.Fatal("rebooted head resurrected Km")
	}
}

// TestKeepAliveOffByDefault pins the determinism guarantee that the
// self-healing knobs default to off: no KEEPALIVE or REPAIR frame may
// appear on the air under DefaultConfig.
func TestKeepAliveOffByDefault(t *testing.T) {
	seen := 0
	d, err := Deploy(DeployOptions{
		N: 40, Density: 10, Seed: 3,
		Trace: func(ev sim.TraceEvent) {
			if len(ev.Pkt) > 0 && (ev.Pkt[0] == 9 || ev.Pkt[0] == 10) {
				seen++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	d.Eng.Run(d.Eng.Now() + 5*time.Second)
	if seen != 0 {
		t.Fatalf("%d keep-alive/repair frames on the air with the feature off", seen)
	}
}
