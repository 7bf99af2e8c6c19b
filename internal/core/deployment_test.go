package core

import (
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/wire"
)

// deploy is the shared test fixture: a mid-sized network that sets up
// completely in a few hundred virtual milliseconds of event work.
func deploy(t *testing.T, n int, density float64, seed uint64) *Deployment {
	t.Helper()
	d, err := Deploy(DeployOptions{N: n, Density: density, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSetupCompletes(t *testing.T) {
	d := deploy(t, 80, 10, 1)
	for i, s := range d.Sensors {
		if s.Phase() != PhaseOperational {
			t.Fatalf("node %d phase %v", i, s.Phase())
		}
		if s.KeyStore().Master.IsZero() == false {
			t.Fatalf("node %d still holds Km after setup", i)
		}
	}
}

func TestClusterInvariants(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		d := deploy(t, 80, 10, seed)
		if err := d.VerifyClusterInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestClusterStats(t *testing.T) {
	d := deploy(t, 100, 12.5, 7)
	st := d.Clusters()
	if st.NumClusters == 0 {
		t.Fatal("no clusters formed")
	}
	if st.Heads != st.NumClusters {
		t.Fatalf("heads %d != clusters %d", st.Heads, st.NumClusters)
	}
	total := 0
	for _, sz := range st.Sizes {
		if sz < 1 {
			t.Fatal("empty cluster recorded")
		}
		total += sz
	}
	if total != 100 {
		t.Fatalf("cluster sizes sum to %d, want 100", total)
	}
	if st.MeanSize < 1.5 || st.MeanSize > 15 {
		t.Fatalf("mean cluster size %v implausible", st.MeanSize)
	}
	if st.HeadFraction <= 0 || st.HeadFraction >= 0.7 {
		t.Fatalf("head fraction %v implausible", st.HeadFraction)
	}
}

func TestKeysPerNodeSmallAndSizeIndependent(t *testing.T) {
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	dSmall := deploy(t, 80, 10, 11)
	dLarge := deploy(t, 240, 10, 12)
	mSmall := mean(dSmall.KeysPerNode(true))
	mLarge := mean(dLarge.KeysPerNode(true))
	if mSmall < 1 || mSmall > 8 {
		t.Fatalf("keys per node %v out of the paper's range", mSmall)
	}
	// Scale-independence: same density, 3x the nodes, similar key count.
	if diff := mLarge - mSmall; diff > 1.5 || diff < -1.5 {
		t.Fatalf("keys per node varies with size: %v vs %v", mSmall, mLarge)
	}
}

func TestSetupMessageCount(t *testing.T) {
	// Figure 9: a little more than one transmission per node (one
	// LINK-ADVERT each, plus one HELLO per clusterhead).
	d := deploy(t, 150, 12.5, 13)
	counts := d.SetupTxCounts()
	st := d.Clusters()
	total := 0
	for _, c := range counts {
		total += c
	}
	want := 150 + st.Heads
	if total != want {
		t.Fatalf("setup transmissions %d, want n + heads = %d", total, want)
	}
	perNode := float64(total) / 150
	if perNode < 1.0 || perNode > 1.5 {
		t.Fatalf("messages per node %v outside Figure 9's band", perNode)
	}
}

func TestRoutingGradientEstablished(t *testing.T) {
	d := deploy(t, 80, 10, 17)
	if d.BS().Hop() != 0 {
		t.Fatalf("BS hop = %d", d.BS().Hop())
	}
	withGradient := 0
	for i, s := range d.Sensors {
		if i == d.BSIndex {
			continue
		}
		if s.Hop() != HopUnknown {
			withGradient++
			// The gradient can never beat the BFS distance.
			bfs := d.Graph.HopCounts(d.BSIndex)[i]
			if bfs >= 0 && int(s.Hop()) < bfs {
				t.Fatalf("node %d hop %d below BFS distance %d", i, s.Hop(), bfs)
			}
		}
	}
	if withGradient < 70 {
		t.Fatalf("only %d/79 nodes acquired a gradient", withGradient)
	}
}

func TestEndToEndDelivery(t *testing.T) {
	d := deploy(t, 80, 10, 19)
	base := d.Eng.Now()
	// Several sources, spread in time.
	sources := []int{5, 23, 47, 71}
	for k, src := range sources {
		d.SendReading(src, base+time.Duration(k+1)*50*time.Millisecond, []byte{byte(src)})
	}
	if _, err := d.Eng.RunUntilIdle(2_000_000); err != nil {
		t.Fatal(err)
	}
	got := d.Deliveries()
	if len(got) != len(sources) {
		t.Fatalf("delivered %d of %d readings", len(got), len(sources))
	}
	for _, del := range got {
		if !del.Encrypted {
			t.Fatal("Step-1 encryption missing")
		}
		if len(del.Data) != 1 || del.Data[0] != byte(del.Origin) {
			t.Fatalf("delivery %v corrupted", del)
		}
	}
}

func TestDeliveryFromEveryNode(t *testing.T) {
	// Exhaustive reachability: every single node's reading arrives.
	d := deploy(t, 60, 12, 23)
	base := d.Eng.Now()
	for i := range d.Sensors {
		if i == d.BSIndex {
			continue
		}
		d.SendReading(i, base+time.Duration(i)*20*time.Millisecond, []byte{1, 2, 3})
	}
	if _, err := d.Eng.RunUntilIdle(5_000_000); err != nil {
		t.Fatal(err)
	}
	if len(d.Deliveries()) != 59 {
		t.Fatalf("delivered %d of 59 readings", len(d.Deliveries()))
	}
}

func TestDataFusionModeAndPeek(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableStep1 = true
	d, err := Deploy(DeployOptions{N: 60, Density: 12, Seed: 29, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	// Install a peek hook on every forwarder; count observations.
	peeked := 0
	for i, s := range d.Sensors {
		if i == d.BSIndex {
			continue
		}
		s.Peek = func(origin uint32, seq uint32, data []byte) bool {
			peeked++
			return true
		}
	}
	d.SendReading(31, d.Eng.Now()+50*time.Millisecond, []byte("reading-31"))
	if _, err := d.Eng.RunUntilIdle(2_000_000); err != nil {
		t.Fatal(err)
	}
	got := d.Deliveries()
	if len(got) != 1 || string(got[0].Data) != "reading-31" {
		t.Fatalf("deliveries = %v", got)
	}
	if got[0].Encrypted {
		t.Fatal("fusion-mode delivery marked encrypted")
	}
	if peeked == 0 {
		t.Fatal("no intermediate node peeked at the plaintext reading")
	}
}

func TestPeekCanDiscard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableStep1 = true
	d, err := Deploy(DeployOptions{N: 60, Density: 12, Seed: 31, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	// Every forwarder discards: aggregation suppressing a redundant report.
	for i, s := range d.Sensors {
		if i == d.BSIndex {
			continue
		}
		s.Peek = func(uint32, uint32, []byte) bool { return false }
	}
	// Pick a source that is NOT a BS neighbor so at least one forwarding
	// decision is required.
	src := -1
	for i := range d.Sensors {
		if i != d.BSIndex && !d.Graph.Adjacent(i, d.BSIndex) {
			src = i
			break
		}
	}
	if src < 0 {
		t.Skip("degenerate topology: all nodes adjacent to BS")
	}
	d.SendReading(src, d.Eng.Now()+50*time.Millisecond, []byte("drop-me"))
	if _, err := d.Eng.RunUntilIdle(2_000_000); err != nil {
		t.Fatal(err)
	}
	if len(d.Deliveries()) != 0 {
		t.Fatal("discarded reading reached the base station")
	}
}

func TestLossyMediumStillDelivers(t *testing.T) {
	d, err := Deploy(DeployOptions{N: 100, Density: 14, Seed: 37, Loss: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		// A node can occasionally miss every HELLO *and* the cluster
		// phase under loss; the protocol tolerates it by making it a
		// singleton head, so setup should still pass. Any other failure
		// is real.
		t.Fatal(err)
	}
	base := d.Eng.Now()
	sent := 0
	for i := 1; i < 100; i += 7 {
		d.SendReading(i, base+time.Duration(i)*10*time.Millisecond, []byte{9})
		sent++
	}
	if _, err := d.Eng.RunUntilIdle(5_000_000); err != nil {
		t.Fatal(err)
	}
	// The cluster broadcast redundancy should deliver the large majority
	// despite 5% per-link loss.
	if got := len(d.Deliveries()); got < sent*7/10 {
		t.Fatalf("delivered %d of %d under 5%% loss", got, sent)
	}
}

func TestDeployValidation(t *testing.T) {
	if _, err := Deploy(DeployOptions{N: 1, Density: 8}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := Deploy(DeployOptions{N: 10, Density: 8, BSIndex: 10}); err == nil {
		t.Fatal("out-of-range BSIndex accepted")
	}
}

func TestDeterministicDeployment(t *testing.T) {
	run := func() (int, int) {
		d := deploy(t, 70, 10, 41)
		st := d.Clusters()
		keys := 0
		for _, k := range d.KeysPerNode(false) {
			keys += k
		}
		return st.NumClusters, keys
	}
	c1, k1 := run()
	c2, k2 := run()
	if c1 != c2 || k1 != k2 {
		t.Fatalf("same seed, different outcomes: (%d,%d) vs (%d,%d)", c1, k1, c2, k2)
	}
}

func TestEnergyReport(t *testing.T) {
	d := deploy(t, 60, 10, 47)
	r := d.Energy()
	if r.TxCount == 0 || r.RxCount == 0 {
		t.Fatal("no radio activity recorded")
	}
	if r.TxMicroJ <= 0 || r.RxMicroJ <= 0 || r.CryptoMicroJ <= 0 {
		t.Fatalf("energy components: %+v", r)
	}
	if got := r.TotalMicroJ(); got != r.TxMicroJ+r.RxMicroJ+r.CryptoMicroJ {
		t.Fatalf("TotalMicroJ = %v", got)
	}
	if r.MeanPerNodeMicroJ <= 0 || r.MeanPerNodeMicroJ*60 < r.TotalMicroJ()*0.99 {
		t.Fatalf("per-node mean inconsistent: %+v", r)
	}
	// Each broadcast reaches ~density receivers, so RxCount/TxCount
	// should approximate the mean degree.
	ratio := float64(r.RxCount) / float64(r.TxCount)
	if ratio < 5 || ratio > 20 {
		t.Fatalf("rx/tx ratio %v implausible for density 10", ratio)
	}
}

// TestBeaconChainOnePerPeriod counts the base station's BEACON
// transmissions: one flood at the operational transition, then exactly
// one per BeaconPeriod. A crash wipes the chain and Reboot re-arms one,
// and a beacon triggered by hand floods once without starting another
// chain.
func TestBeaconChainOnePerPeriod(t *testing.T) {
	const period = 400 * time.Millisecond
	cfg := DefaultConfig()
	cfg.BeaconPeriod = period
	var bs node.ID
	floods := 0
	var lastAt time.Duration
	var lastNonce uint64
	trace := func(ev sim.TraceEvent) {
		var f wire.Frame
		if ev.From != bs || wire.ParseFrameInto(&f, ev.Pkt) != nil || f.Type != wire.TBeacon {
			return
		}
		// One record per receiver: count each transmission once.
		if floods > 0 && ev.At == lastAt && f.Nonce == lastNonce {
			return
		}
		floods++
		lastAt, lastNonce = ev.At, f.Nonce
	}
	d, err := Deploy(DeployOptions{N: 60, Density: 10, Seed: 71, Config: cfg, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	bs = node.ID(d.BSIndex)
	t2 := d.Cfg.OperationalAt

	// The transition and k = 2 periods: k + 1 floods.
	d.Eng.Run(t2 + 2*period + period/2)
	if floods != 3 {
		t.Fatalf("%d base-station beacon floods over the transition and 2 periods, want 3", floods)
	}

	// Crash, reboot, one flood by hand, then 2 more periods: the hand
	// trigger and the rebooted chain's 2 floods.
	floods = 0
	crashAt := d.Eng.Now()
	d.Eng.Schedule(crashAt, func() { d.Eng.Crash(d.BSIndex) })
	d.Eng.Schedule(crashAt+period/2, func() { d.Eng.Reboot(d.BSIndex) })
	bsSensor := d.Sensors[d.BSIndex]
	d.Eng.Do(crashAt+period/2+period/4, d.BSIndex, func(ctx node.Context) { bsSensor.TriggerBeacon(ctx) })
	d.Eng.Run(crashAt + period/2 + 2*period + period/2)
	if floods != 3 {
		t.Fatalf("%d base-station beacon floods across a reboot, a manual trigger and 2 periods, want 3", floods)
	}
}

func TestBeaconRepairAfterDeaths(t *testing.T) {
	// Killing relays leaves stale gradients pointing into the void;
	// periodic beacons rebuild them and delivery recovers.
	cfg := DefaultConfig()
	cfg.BeaconPeriod = 2 * time.Second
	d, err := Deploy(DeployOptions{N: 150, Density: 14, Seed: 53, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	// Kill a third of the nodes (never the BS).
	for i := 1; i < 150; i += 3 {
		d.Eng.Kill(i)
	}
	// Let at least one periodic beacon round rebuild the gradient over
	// the surviving topology.
	d.Eng.Run(d.Eng.Now() + 3*cfg.BeaconPeriod)

	sent, delivered := 0, 0
	for i := 2; i < 150 && sent < 20; i += 7 {
		if !d.Eng.Alive(i) {
			continue
		}
		before := len(d.Deliveries())
		d.SendReading(i, d.Eng.Now()+10*time.Millisecond, []byte{byte(i)})
		d.Eng.Run(d.Eng.Now() + 300*time.Millisecond)
		if len(d.Deliveries()) > before {
			delivered++
		}
		sent++
	}
	if delivered < sent*7/10 {
		t.Fatalf("after repair: %d/%d delivered", delivered, sent)
	}
}
