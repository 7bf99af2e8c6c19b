package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/node"
)

// protocolRun drives a full protocol lifecycle — setup, readings from many
// sources, a cluster-key refresh, a revocation, more readings under the
// rotated keys — and snapshots everything the experiment layer can observe.
// This exercises every pooled hot path in one run: the engine's event and
// packet recycling, the host scratch's seal/marshal buffers (which the
// poisoned engine junks after every callback), and the BS's AppendOpen of
// inner envelopes.
func protocolRun(t *testing.T, mutate func(*DeployOptions)) (deliveries []Delivery, energy EnergyReport, clusters ClusterStats) {
	t.Helper()
	opt := DeployOptions{N: 60, Density: 10, Seed: 97, Loss: 0.05}
	if mutate != nil {
		mutate(&opt)
	}
	d, err := Deploy(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunSetup(); err != nil {
		t.Fatal(err)
	}
	// Invariants must hold here; after the revocation below the revoked
	// cluster's members are legitimately clusterless.
	if err := d.VerifyClusterInvariants(); err != nil {
		t.Fatal(err)
	}
	base := d.Eng.Now()
	for i := 1; i < 60; i += 4 {
		d.SendReading(i, base+time.Duration(i)*10*time.Millisecond, []byte{byte(i), 0xAA})
	}
	// Revoke the lowest-numbered cluster, then rotate every head's key.
	// (Map iteration order is random, so pick deterministically.)
	d.Eng.Do(base+800*time.Millisecond, d.BSIndex, func(ctx node.Context) {
		lowest := uint32(0)
		first := true
		for cid := range d.Clusters().Sizes {
			if first || cid < lowest {
				lowest, first = cid, false
			}
		}
		d.BS().RevokeClusters(ctx, []uint32{lowest})
	})
	for _, s := range d.Sensors {
		s := s
		if s == nil || !s.IsHead() {
			continue
		}
		d.Eng.Do(base+time.Second, indexOf(d, s), func(ctx node.Context) {
			s.StartClusterRefresh(ctx)
		})
	}
	for i := 2; i < 60; i += 6 {
		d.SendReading(i, base+1500*time.Millisecond+time.Duration(i)*10*time.Millisecond, []byte("post-refresh"))
	}
	if _, err := d.Eng.RunUntilIdle(20_000_000); err != nil {
		t.Fatal(err)
	}
	return d.Deliveries(), d.Energy(), d.Clusters()
}

func indexOf(d *Deployment, s *Sensor) int {
	for i, c := range d.Sensors {
		if c == s {
			return i
		}
	}
	return -1
}

// TestPoolingByteEquivalence is the PR's contract test: the pooled engine
// (the default), the pool-disabled engine, and the poisoned engine must
// produce bit-identical protocol outcomes — every delivery's bytes, every
// energy figure, every cluster statistic. Divergence means some behavior
// aliased a recycled buffer or the pools changed scheduling.
func TestPoolingByteEquivalence(t *testing.T) {
	delP, enP, clP := protocolRun(t, nil)
	delU, enU, clU := protocolRun(t, func(o *DeployOptions) { o.DisablePooling = true })
	delX, enX, clX := protocolRun(t, func(o *DeployOptions) { o.PoisonRecycled = true })

	check := func(name string, del []Delivery, en EnergyReport, cl ClusterStats) {
		t.Helper()
		if len(del) != len(delP) {
			t.Fatalf("%s: %d deliveries vs %d pooled", name, len(del), len(delP))
		}
		for i := range delP {
			a, b := delP[i], del[i]
			if a.Origin != b.Origin || a.Seq != b.Seq || a.At != b.At ||
				a.Encrypted != b.Encrypted || !bytes.Equal(a.Data, b.Data) {
				t.Fatalf("%s: delivery %d differs: %+v vs %+v", name, i, a, b)
			}
		}
		if en != enP {
			t.Fatalf("%s: energy report differs:\n%+v\n%+v", name, en, enP)
		}
		if !reflect.DeepEqual(cl, clP) {
			t.Fatalf("%s: cluster stats differ:\n%+v\n%+v", name, cl, clP)
		}
	}
	check("DisablePooling", delU, enU, clU)
	check("PoisonRecycled", delX, enX, clX)

	if len(delP) == 0 {
		t.Fatal("equivalence vacuous: no deliveries")
	}
}
