package core

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/node"
)

// handoffConfig enables mobility-driven cluster handoff with the fast
// repair cadence.
func handoffConfig() Config {
	cfg := repairConfig()
	cfg.HandoffEnabled = true
	return cfg
}

// mobileAll lists every non-base-station index of an n-node deployment
// (BS at index 0, the default).
func mobileAll(n int) []int {
	nodes := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		nodes = append(nodes, i)
	}
	return nodes
}

// stillMobility provisions the listed nodes as mobile without ever moving
// them: Until is below the first tick (From+Step), so the controller
// schedules nothing and tests can teleport nodes by hand instead.
func stillMobility(nodes []int, seed uint64) mobility.Config {
	return mobility.Config{
		Kind:     mobility.Waypoint,
		Nodes:    nodes,
		SpeedMax: 0.1,
		Until:    time.Millisecond,
		Seed:     seed,
	}
}

// pickVictimClusterStable is pickVictimCluster with a deterministic
// choice: the lowest-indexed qualifying head. pickVictimCluster ranges
// over a map, so repeated runs of the same binary pick different
// clusters; these tests pin per-cluster outcomes and need stability.
func pickVictimClusterStable(t *testing.T, d *Deployment, minMembers int) (int, []int) {
	t.Helper()
	members := make(map[uint32][]int)
	for i, s := range d.Sensors {
		if s == nil || i == d.BSIndex {
			continue
		}
		if cid, ok := s.Cluster(); ok && int(cid) != i {
			members[cid] = append(members[cid], i)
		}
	}
	for head := range d.Sensors {
		if head == d.BSIndex {
			continue
		}
		if mm := members[uint32(head)]; len(mm) >= minMembers {
			return head, mm
		}
	}
	t.Skip("no suitable cluster in this topology; adjust seed")
	return 0, nil
}

// oppositePoint returns the torus-diametric point of node i — guaranteed
// out of radio range of everything near its old position.
func oppositePoint(d *Deployment, i int) geom.Point {
	p := d.Graph.Pos(i)
	side := d.Graph.Side()
	return geom.Point{
		X: math.Mod(p.X+side/2, side),
		Y: math.Mod(p.Y+side/2, side),
	}
}

// deliverWithin originates a reading and runs the engine for a bounded
// horizon, reporting whether the base station received it authenticated.
// Keep-alive configs never quiesce (heads heartbeat forever), so these
// tests cannot use sendAndCount's RunUntilIdle.
func deliverWithin(t *testing.T, d *Deployment, src int, payload []byte, horizon time.Duration) bool {
	t.Helper()
	before := len(d.Deliveries())
	at := d.Eng.Now() + 10*time.Millisecond
	d.SendReading(src, at, payload)
	d.Eng.Run(at + horizon)
	for _, del := range d.Deliveries()[before:] {
		if del.Origin == node.ID(src) && string(del.Data) == string(payload) && del.Encrypted {
			return true
		}
	}
	return false
}

// TestHandoffLeavesNoStaleKey is the mobility acceptance pin: a mobile
// member carried out of its head's radio range must leave the cluster
// (erasing the old cluster key), re-join through the late-addition path at
// its new position, and resume authenticated delivery — all without ever
// re-acquiring the erased master key Km or the departed cluster's key.
func TestHandoffLeavesNoStaleKey(t *testing.T) {
	cfg := handoffConfig()
	d, err := Deploy(DeployOptions{
		N: 60, Density: 10, Seed: 7, Config: cfg,
		Mobility: stillMobility(mobileAll(60), 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	_, members := pickVictimClusterStable(t, d, 2)
	victim := members[0]
	s := d.Sensors[victim]
	if !s.Mobile() {
		t.Fatalf("node %d not provisioned mobile", victim)
	}
	oldCID, ok := s.Cluster()
	if !ok {
		t.Fatalf("victim %d not clustered after setup", victim)
	}
	oldKey, _ := s.KeyStore().KeyFor(oldCID)
	if _, cached := s.sealers[oldKey]; !cached {
		t.Fatal("victim never cached its own cluster's sealer")
	}

	var hook struct {
		oldCID, newCID     uint32
		started, completed time.Duration
	}
	s.OnHandoff = func(oldCID, newCID uint32, started, completed time.Duration) {
		hook.oldCID, hook.newCID = oldCID, newCID
		hook.started, hook.completed = started, completed
	}

	moveAt := d.Eng.Now() + 50*time.Millisecond
	far := oppositePoint(d, victim)
	d.Eng.Schedule(moveAt, func() { d.Graph.MoveNode(victim, far) })
	d.Eng.Run(moveAt + 10*cfg.KeepAlivePeriod + 2*time.Second)

	if got := s.Handoffs(); got < 1 {
		t.Fatalf("victim completed %d handoffs, want >= 1", got)
	}
	newCID, ok := s.Cluster()
	if !ok {
		t.Fatal("victim not clustered after handoff")
	}
	if newCID == oldCID {
		t.Fatalf("victim re-joined its old cluster %d from the opposite corner", oldCID)
	}
	// The acceptance criterion: the departed cluster's key is erased.
	if _, held := s.KeyStore().KeyFor(oldCID); held {
		t.Fatalf("victim still holds departed cluster %d's key after handoff", oldCID)
	}
	if _, cached := s.sealers[oldKey]; cached {
		t.Fatalf("victim still caches departed cluster %d's sealer after handoff", oldCID)
	}
	assertSealersHeld(t, d)
	// The admission master survives (repeated handoffs stay possible) but
	// Km stays erased — handoff never widens the key-capture surface.
	if s.KeyStore().AddMaster.IsZero() {
		t.Fatal("victim erased KMC during handoff; further handoffs impossible")
	}
	if !s.KeyStore().Master.IsZero() {
		t.Fatal("victim holds Km after handoff")
	}
	if s.InHandoff() {
		t.Fatal("victim still marked in-handoff after completion")
	}

	// The hook saw the transition with a sane latency.
	if hook.oldCID != oldCID || hook.newCID != newCID {
		t.Fatalf("OnHandoff reported %d->%d, want %d->%d", hook.oldCID, hook.newCID, oldCID, newCID)
	}
	// Silence is counted from the last keep-alive heard, which may land
	// just before the move — so the trigger fires after the move plus the
	// miss budget minus at most one period.
	miss := KeepAliveMisses * cfg.KeepAlivePeriod
	if hook.started < moveAt+miss-cfg.KeepAlivePeriod {
		t.Fatalf("handoff started %v, before the %v miss budget past the move at %v", hook.started, miss, moveAt)
	}
	if hook.completed <= hook.started {
		t.Fatalf("handoff completed %v, started %v", hook.completed, hook.started)
	}
	if d.Handoffs() < 1 {
		t.Fatalf("deployment counted %d handoffs", d.Handoffs())
	}

	// The victim's hop gradient is stale at the new position; a fresh
	// beacon round rebuilds it, after which authenticated delivery
	// resumes from the new cluster.
	bs := d.BS()
	beaconAt := d.Eng.Now() + 10*time.Millisecond
	d.Eng.Do(beaconAt, d.BSIndex, func(ctx node.Context) { bs.TriggerBeacon(ctx) })
	d.Eng.Run(beaconAt + time.Second)
	if !deliverWithin(t, d, victim, []byte("post-handoff"), 2*time.Second) {
		t.Fatal("handed-off node's reading did not reach the base station authenticated")
	}
}

// TestRekeyOnRepairRotatesClusterKey verifies the churn hardening knob: a
// repair winner immediately refreshes the cluster key, so copies carried
// off by departed members stop authenticating.
func TestRekeyOnRepairRotatesClusterKey(t *testing.T) {
	cfg := repairConfig()
	cfg.RekeyOnRepair = true
	d, err := Deploy(DeployOptions{N: 60, Density: 10, Seed: 11, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	head, members := pickVictimClusterStable(t, d, 2)
	cid := uint32(head)
	keyBefore, _ := d.Sensors[members[0]].KeyStore().KeyFor(cid)
	epochBefore := d.Sensors[members[0]].Epoch(cid)

	crashAt := d.Eng.Now() + 50*time.Millisecond
	d.Eng.Schedule(crashAt, func() { d.Eng.Crash(head) })
	d.Eng.Run(crashAt + 10*cfg.KeepAlivePeriod + time.Second)

	claimant := -1
	for _, i := range members {
		if d.Sensors[i].Repaired() && claimant < 0 {
			claimant = i
		}
	}
	if claimant < 0 {
		t.Fatal("no member claimed headship after the head crashed")
	}
	// Every member rotated off the pre-crash key: copies carried away by
	// departed or captured nodes no longer authenticate. Concurrent
	// claimants may each issue a refresh before the election converges,
	// so the test pins rotation and epoch advance, not which of the
	// candidate keys won.
	for _, i := range members {
		s := d.Sensors[i]
		if got, ok := s.Cluster(); !ok || got != cid {
			t.Fatalf("member %d left cluster %d", i, cid)
		}
		key, _ := s.KeyStore().KeyFor(cid)
		if key == keyBefore {
			t.Fatalf("member %d kept the pre-crash cluster key despite RekeyOnRepair", i)
		}
		if got := s.Epoch(cid); got <= epochBefore {
			t.Fatalf("member %d epoch %d after rekey, want > %d", i, got, epochBefore)
		}
	}
	// Delivery still works under the claimant's rotated key.
	if !deliverWithin(t, d, claimant, []byte("post-rekey"), 2*time.Second) {
		t.Fatal("repaired cluster's reading did not reach the base station after rekey")
	}
}

// TestMobilityWithoutHandoffKeepsStaticProvisioning pins the gating: a
// deployment that moves nodes but never enables handoff provisions them
// exactly like static nodes — no retained KMC, no mobile flag — so motion
// alone cannot widen the capture surface.
func TestMobilityWithoutHandoffKeepsStaticProvisioning(t *testing.T) {
	d, err := Deploy(DeployOptions{
		N: 40, Density: 10, Seed: 3, Config: repairConfig(),
		Mobility: stillMobility(mobileAll(40), 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	for i, s := range d.Sensors {
		if i == d.BSIndex {
			continue
		}
		if s.Mobile() {
			t.Fatalf("node %d marked mobile without HandoffEnabled", i)
		}
		if !s.KeyStore().AddMaster.IsZero() {
			t.Fatalf("node %d retains KMC without HandoffEnabled", i)
		}
	}
}

// TestDeployRejectsMobileBaseStation pins the provisioning guard.
func TestDeployRejectsMobileBaseStation(t *testing.T) {
	_, err := Deploy(DeployOptions{
		N: 20, Density: 8, Seed: 1, Config: handoffConfig(),
		Mobility: stillMobility([]int{0, 1, 2}, 1),
	})
	if err == nil {
		t.Fatal("Deploy accepted a mobile base station")
	}
	if !strings.Contains(err.Error(), "base station") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestHandoffStatePersistsMobileFlag pins the durability of mobile
// provisioning across the export/restore seam: without it a restored
// node would erase KMC at its next join and strand itself after one
// more move.
func TestHandoffStatePersistsMobileFlag(t *testing.T) {
	cfg := handoffConfig()
	d, err := Deploy(DeployOptions{
		N: 40, Density: 10, Seed: 5, Config: cfg,
		Mobility: stillMobility(mobileAll(40), 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	_, members := pickVictimClusterStable(t, d, 1)
	s := d.Sensors[members[0]]
	if !s.Mobile() {
		t.Fatalf("node %d not mobile", members[0])
	}
	st := s.ExportState()
	if !st.Mobile {
		t.Fatal("ExportState dropped the mobile flag")
	}
	restored := RestoreSensor(cfg, st)
	if !restored.Mobile() {
		t.Fatal("RestoreSensor dropped the mobile flag")
	}
	if restored.KeyStore().AddMaster.IsZero() {
		t.Fatal("restored mobile node lost KMC")
	}
}

// TestMobilityDisabledByteIdenticalToOff pins the off-path contract the
// same way batching and ACK coalescing pin theirs: a mobility config
// that enables no motion (zero Until) must never construct a
// controller, schedule a tick, or perturb any stream — deliveries,
// energy, and cluster structure are byte-identical to a deployment
// with no Mobility field at all.
func TestMobilityDisabledByteIdenticalToOff(t *testing.T) {
	delOff, enOff, clOff := protocolRun(t, nil)
	delIdle, enIdle, clIdle := protocolRun(t, func(o *DeployOptions) {
		// Nodes and speeds set, Until zero: Enabled() is false.
		o.Mobility = mobility.Config{
			Kind: mobility.Waypoint, Nodes: []int{3, 5, 9},
			SpeedMin: 0.1, SpeedMax: 0.2, Seed: 99,
		}
	})

	if len(delIdle) != len(delOff) {
		t.Fatalf("disabled mobility: %d deliveries vs %d baseline", len(delIdle), len(delOff))
	}
	for i := range delOff {
		a, b := delOff[i], delIdle[i]
		if a.Origin != b.Origin || a.Seq != b.Seq || a.At != b.At ||
			a.Encrypted != b.Encrypted || !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, a, b)
		}
	}
	if enIdle != enOff {
		t.Fatalf("energy report differs:\n%+v\n%+v", enIdle, enOff)
	}
	if !reflect.DeepEqual(clIdle, clOff) {
		t.Fatalf("cluster stats differ:\n%+v\n%+v", clIdle, clOff)
	}
	if len(delOff) == 0 {
		t.Fatal("equivalence vacuous: no deliveries")
	}
}
