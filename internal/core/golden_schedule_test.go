package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// goldenSchedule pins the full radio schedule and the resulting key
// state of a lossy, jittered ~500-node run. Shards is a pure parallelism
// setting, so one hash covers every shard count. Any drift here is a
// behavior change, not a re-baseline.
//
// Re-baselined once, on purpose, when the legacy engine was retired and
// the Trace stream was put in transmission order: the trace records
// (sorted), the deliveries and the key state are identical to the
// sharded engine's before the change; only the order of trace records
// moved.
const goldenSchedule = "d6e784ee96b4f7cfd78c490fe5d3cba81f304c25aa0e04be10f9bc89785c7736"

func TestGoldenSchedule(t *testing.T) {
	for _, shards := range []int{0, 1, 2, 4} {
		if got := scheduleHash(t, shards); got != goldenSchedule {
			t.Errorf("Shards=%d: schedule hash %s, want %s", shards, got, goldenSchedule)
		}
	}
}

// scheduleHash runs key setup, the beacon flood and a few readings, and
// hashes every trace record (At, From, To, Size, Lost), every delivery,
// and each node's cluster, cluster keys (sorted by CID) and hop.
func scheduleHash(t *testing.T, shards int) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(w hash.Hash, v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		w.Write(buf[:])
	}
	d, err := Deploy(DeployOptions{
		N: 500, Density: 10, Seed: 20050404, Loss: 0.05, Jitter: 2 * time.Millisecond,
		Shards: shards,
		Trace: func(ev sim.TraceEvent) {
			put(h, uint64(ev.At))
			put(h, uint64(ev.From))
			put(h, uint64(ev.To))
			put(h, uint64(ev.Size))
			if ev.Lost {
				put(h, 1)
			} else {
				put(h, 0)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	op := d.Cfg.OperationalAt
	d.Eng.Run(op + time.Second)
	for i := 1; i < 500; i += 25 {
		d.SendReading(i, op+time.Second+time.Duration(i)*time.Millisecond, []byte{byte(i), 0xAB})
	}
	d.Eng.Run(op + 4*time.Second)
	for _, dl := range d.Deliveries() {
		put(h, uint64(dl.Origin))
		put(h, uint64(dl.Seq))
		put(h, uint64(dl.At))
		h.Write(dl.Data)
	}
	for _, s := range d.Sensors {
		cm := s.KeyStore().Snapshot()
		put(h, uint64(cm.CID))
		put(h, uint64(s.Hop()))
		cids := make([]uint32, 0, len(cm.Clusters))
		for cid := range cm.Clusters {
			cids = append(cids, cid)
		}
		slices.Sort(cids)
		for _, cid := range cids {
			k := cm.Clusters[cid]
			put(h, uint64(cid))
			h.Write(k[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
