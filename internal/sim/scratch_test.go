package sim

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/crypt"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// sealNode broadcasts a few frames sealed under a key every node shares
// and opens every frame it hears, all through ctx.Scratch: the pattern
// of a cluster-keyed broadcast that every neighbour verifies. A packet
// is the 8-byte nonce followed by the sealed bytes.
type sealNode struct {
	st        *crypt.KeyState // held for the whole run, so it is one state
	ticks     int
	scratches map[*node.Scratch]bool // every scratch the host handed out
	opened    []string               // plaintexts, in arrival order
	failed    int
}

var (
	sealKey = crypt.KeyFromBytes([]byte("one shared key.."))
	sealAAD = []byte("sim")
)

// crypto returns the shared key's state and the host's scratch.
func (s *sealNode) crypto(ctx node.Context) (*crypt.KeyState, *node.Scratch) {
	if s.st == nil {
		s.st = ctx.Keyring().Acquire(sealKey)
	}
	sc := ctx.Scratch()
	s.scratches[sc] = true
	return s.st, sc
}

func (s *sealNode) Start(ctx node.Context) { s.Timer(ctx, 0) }

func (s *sealNode) Timer(ctx node.Context, _ node.Tag) {
	if s.ticks == 3 {
		return
	}
	s.ticks++
	nonce := uint64(ctx.ID())<<32 | uint64(s.ticks)
	pkt := binary.BigEndian.AppendUint64(nil, nonce)
	pt := fmt.Appendf(nil, "node %d tick %d", ctx.ID(), s.ticks)
	st, sc := s.crypto(ctx)
	ctx.Broadcast(sc.AppendSeal(st, pkt, nonce, sealAAD, pt))
	ctx.SetTimer(time.Duration(1+ctx.Rand().Intn(3))*time.Millisecond, 0)
}

func (s *sealNode) Receive(ctx node.Context, _ node.ID, pkt []byte) {
	st, sc := s.crypto(ctx)
	pt, ok := sc.AppendOpen(st, nil, binary.BigEndian.Uint64(pkt), sealAAD, pkt[8:])
	if !ok {
		s.failed++
		return
	}
	s.opened = append(s.opened, string(pt))
}

// sealRun runs 64 sealNodes on a torus at the given shard count,
// reporting to reg.
func sealRun(t *testing.T, shards int, reg *obs.Registry) (*Engine, []*sealNode) {
	t.Helper()
	g, err := topology.Generate(xrand.New(5).Split(1), topology.Config{N: 64, Density: 8, Metric: geom.Torus})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*sealNode, g.N())
	behaviors := make([]node.Behavior, g.N())
	for i := range nodes {
		nodes[i] = &sealNode{scratches: map[*node.Scratch]bool{}}
		behaviors[i] = nodes[i]
	}
	eng := newEngine(t, g, behaviors, Config{Shards: shards, Obs: reg.Scope("scratch", 0)})
	eng.Boot(0)
	if _, err := eng.RunUntilIdle(1 << 20); err != nil {
		t.Fatal(err)
	}
	return eng, nodes
}

// TestSharedScratchPerShard checks the engine's sealer scratch: every
// node of a shard is handed that shard's one scratch, shards never share
// one, frames opened through them give exactly the one-shard run's
// plaintexts, neighbours on one shard verify a broadcast once, and the
// engine reports the tables' hits and misses as obs counters. The
// race job runs it at GOMAXPROCS 1 and 4, so a scratch used from two
// shard goroutines shows up there.
func TestSharedScratchPerShard(t *testing.T) {
	_, ref := sealRun(t, 1, nil)
	const shards = 4
	reg := obs.NewRegistry()
	eng, nodes := sealRun(t, shards, reg)
	perShard := make([]*node.Scratch, shards)
	var hits, misses uint64
	for i, n := range nodes {
		if n.failed > 0 || len(n.opened) == 0 {
			t.Fatalf("node %d opened %d frames and failed %d", i, len(n.opened), n.failed)
		}
		if fmt.Sprint(n.opened) != fmt.Sprint(ref[i].opened) {
			t.Fatalf("node %d opened %v at %d shards, %v at one", i, n.opened, shards, ref[i].opened)
		}
		if len(n.scratches) != 1 {
			t.Fatalf("node %d was handed %d scratches; want its shard's one", i, len(n.scratches))
		}
		k := eng.shardOf[i]
		for sc := range n.scratches {
			if perShard[k] == nil {
				perShard[k] = sc
				h, m := sc.MemoStats()
				hits, misses = hits+h, misses+m
			} else if perShard[k] != sc {
				t.Fatalf("node %d on shard %d got another scratch than its shard's", i, k)
			}
		}
	}
	for k, sc := range perShard {
		for j := range k {
			if sc == perShard[j] {
				t.Fatalf("shards %d and %d share a scratch", j, k)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no open was answered by a shard's memo table")
	}
	snap := reg.Snapshot()
	if snap["crypt_memo_hits_total"] != hits || snap["crypt_memo_misses_total"] != misses {
		t.Fatalf("obs reports %v hits and %v misses; the shards' tables counted %d and %d",
			snap["crypt_memo_hits_total"], snap["crypt_memo_misses_total"], hits, misses)
	}
}
