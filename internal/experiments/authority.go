package experiments

import (
	"fmt"
	"time"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// This file holds the threshold-authority resilience family: the
// Section IV-D eviction machinery with the base station replaced by a
// t-of-m replica committee (internal/authority) running its DKG and
// threshold signing rounds on the transport Lab, against the classic
// single-base-station deployment at identical seeds. The x axis is the
// number of captured authority replicas; the claim under test is the
// tentpole's fail-closed contract — evictions keep working with up to
// m−t replicas down, and a coalition of fewer than t captured replicas
// cannot forge an eviction the sensors accept, while capturing the one
// classic base station forges trivially.

// saltAuthority separates the committee's key material and Lab
// scheduling streams from the deployment stream (see the salt table in
// experiments.go and docs/DETERMINISM.md).
const saltAuthority = 0x5c4e3e06

// AuthorityResilienceResult sweeps the captured-replica count.
type AuthorityResilienceResult struct {
	// Evict: fraction of the target cluster evicted by the committee's
	// combined command (the captured replicas crash out of the protocol;
	// success requires t live signers).
	Evict *stats.Series
	// ForgeQuorum / ForgeSingle: fraction of the target cluster evicted
	// by the adversary's forged command — chain shares pooled from the
	// captured replicas vs. the chain held whole by a captured classic
	// base station.
	ForgeQuorum, ForgeSingle *stats.Series
	// T of M replicas authorize; N is the sensor network size.
	T, M, N int
}

// AuthorityResilience runs the capture sweep for a t-of-m authority
// committee over sensor networks of size o.N. captured defaults to
// {0, 1, ..., m}.
func AuthorityResilience(o Options, t, m int, captured []int) (*AuthorityResilienceResult, error) {
	o = o.withDefaults()
	if t < 1 || m < t || m > 16 {
		return nil, fmt.Errorf("experiments: bad authority shape t=%d m=%d", t, m)
	}
	if len(captured) == 0 {
		captured = make([]int, m+1)
		for i := range captured {
			captured[i] = i
		}
	}
	const (
		settleAt = 2 * time.Second // sensor key setup + beacon slack
		horizon  = 500 * time.Millisecond
		// Committee timeline: DKG rounds end well before capture, the
		// survivors propose after it, and the Lab drains the signing
		// rounds before the command is read out.
		captureAt = 300 * time.Millisecond
		proposeAt = 400 * time.Millisecond
		drainTo   = 800 * time.Millisecond
	)
	type authObs struct {
		evict, forgeQuorum, forgeSingle float64
	}
	trial := func(point, trialIdx int) (authObs, error) {
		a := captured[point]
		if a > m {
			a = m
		}
		seed := xrand.TrialSeed(o.Seed, point, trialIdx)
		cfg := core.DefaultConfig()
		auth := core.AuthorityFromSeed(seed, cfg.ChainLength)

		// deployment stands up the sensor network on a Lab and runs it to
		// the settled, fully-clustered state. Same seed, same network —
		// every arm below sees an identical deployment.
		deployment := func() (*transport.Lab, []*core.Sensor, error) {
			graph, err := topology.Generate(xrand.New(seed), topology.Config{N: o.N, Density: 10})
			if err != nil {
				return nil, nil, err
			}
			sensors := make([]*core.Sensor, o.N)
			behaviors := make([]node.Behavior, o.N)
			for i := 0; i < o.N; i++ {
				mat := auth.MaterialFor(node.ID(i))
				if i == 0 {
					sensors[i] = core.NewBaseStation(cfg, mat, auth)
				} else {
					sensors[i] = core.NewSensor(cfg, mat)
				}
				behaviors[i] = sensors[i]
			}
			lab, err := transport.NewLab(transport.LabConfig{Graph: graph, Seed: seed}, behaviors)
			if err != nil {
				return nil, nil, err
			}
			lab.Run(settleAt)
			return lab, sensors, nil
		}

		// revokeArm injects one TRevoke frame from node `from` into a
		// fresh copy of the deployment and reports the fraction of the
		// target cluster's members the command evicted.
		revokeArm := func(rv *wire.Revoke, targetCID uint32, from int) (float64, error) {
			lab, sensors, err := deployment()
			if err != nil {
				return 0, err
			}
			var members []int
			for i := 1; i < o.N; i++ {
				if cid, in := sensors[i].Cluster(); in && cid == targetCID {
					members = append(members, i)
				}
			}
			if len(members) == 0 {
				return 0, nil
			}
			body := rv.AppendMarshal(nil)
			pkt, err := (&wire.Frame{Type: wire.TRevoke, Payload: body}).AppendMarshal(nil)
			if err != nil {
				return 0, err
			}
			lab.Do(settleAt+10*time.Millisecond, from, func(ctx node.Context) {
				ctx.Broadcast(pkt)
			})
			lab.Run(settleAt + horizon)
			evicted := 0
			for _, i := range members {
				if sensors[i].Evicted() {
					evicted++
				}
			}
			return float64(evicted) / float64(len(members)), nil
		}

		// Scout the deployment once to pick the eviction target: the
		// first clustered head among the plain sensors. Its cluster is
		// what both the committee and the adversary try to evict, and the
		// head doubles as the adversary's injection point.
		_, sensors, err := deployment()
		if err != nil {
			return authObs{}, err
		}
		target, injector := uint32(0), 0
		for i := 1; i < o.N; i++ {
			if cid, in := sensors[i].Cluster(); in && sensors[i].IsHead() {
				target, injector = cid, i
				break
			}
		}
		if injector == 0 {
			return authObs{}, nil // degenerate deployment: nothing clustered
		}

		// The committee: t-of-m replicas on a complete Lab graph, holding
		// the same revocation chain the sensors are committed to, shared
		// at manufacture. Captured replicas crash out after the DKG.
		crng := xrand.New(xrand.TrialSeed(o.Seed^saltAuthority, point, trialIdx))
		dealSeed := keyFromRNG(crng)
		css := authority.SplitChain(auth.Chain(), t, m, dealSeed)
		replicas := make([]*authority.Replica, m)
		behaviors := make([]node.Behavior, m)
		for i := 0; i < m; i++ {
			replicas[i] = authority.NewReplica(authority.ReplicaConfig{
				T: t, N: m, Index: i + 1,
				Seed:     keyFromRNG(crng),
				Chain:    css[i],
				RoundGap: 50 * time.Millisecond,
				Registry: o.Obs,
			})
			behaviors[i] = replicas[i]
		}
		pos := make([]geom.Point, m)
		for i := range pos {
			pos[i] = geom.Point{X: float64(i) * 0.1}
		}
		clab, err := transport.NewLab(transport.LabConfig{
			Graph: topology.FromPositions(pos, 10, 1.0, geom.Planar),
			Seed:  xrand.TrialSeed(o.Seed^saltAuthority, point, trialIdx),
		}, behaviors)
		if err != nil {
			return authObs{}, err
		}
		for i := 0; i < a; i++ {
			clab.ScheduleCrash(captureAt, i)
		}
		var signers []int
		for i := a + 1; i <= m && len(signers) < t; i++ {
			signers = append(signers, i)
		}
		if len(signers) == t {
			proposer := replicas[signers[0]-1]
			clab.Do(proposeAt, signers[0]-1, func(ctx node.Context) {
				proposer.Propose(ctx, wire.CmdEvict, 1, []uint32{target}, signers)
			})
		}
		clab.Run(drainTo)

		var obs authObs
		// Genuine arm: the survivors' combined command enters the sensor
		// network at the base station's position, exactly as the classic
		// single-BS RevokeClusters flood would.
		if len(signers) == t && len(replicas[signers[0]-1].Commands) > 0 {
			sc := replicas[signers[0]-1].Commands[0]
			obs.evict, err = revokeArm(sc.Revoke(), target, 0)
			if err != nil {
				return authObs{}, err
			}
		}
		// Forgery arms: the adversary writes its best candidate for K_1
		// into a Revoke and floods it from the captured head's position.
		// Threshold authority: pool the captured replicas' chain shares.
		// Single-BS baseline: one capture yields the whole chain.
		if a > 0 {
			xs := make([]int, a)
			shares := make([][]byte, a)
			for i := 0; i < a; i++ {
				xs[i] = i + 1
				sh, err := css[i].Share(1)
				if err != nil {
					return authObs{}, err
				}
				shares[i] = sh
			}
			pooled, err := authority.CombineChainValue(xs, shares)
			if err != nil {
				return authObs{}, err
			}
			obs.forgeQuorum, err = revokeArm(
				&wire.Revoke{Index: 1, ChainKey: pooled, CIDs: []uint32{target}}, target, injector)
			if err != nil {
				return authObs{}, err
			}
			whole, err := auth.Chain().Reveal(1)
			if err != nil {
				return authObs{}, err
			}
			if whole == pooled {
				obs.forgeSingle = obs.forgeQuorum // a >= t: same candidate, same flood
			} else {
				obs.forgeSingle, err = revokeArm(
					&wire.Revoke{Index: 1, ChainKey: whole, CIDs: []uint32{target}}, target, injector)
				if err != nil {
					return authObs{}, err
				}
			}
		}
		return obs, nil
	}

	obs, err := runner.Grid(runner.Workers(o.Workers), len(captured), o.Trials, trial)
	if err != nil {
		return nil, err
	}
	res := &AuthorityResilienceResult{
		Evict:       stats.NewSeries("evict-coverage"),
		ForgeQuorum: stats.NewSeries("forge-threshold"),
		ForgeSingle: stats.NewSeries("forge-single-bs"),
		T:           t, M: m, N: o.N,
	}
	for point, a := range captured {
		for _, ob := range obs[point] {
			res.Evict.Observe(float64(a), ob.evict)
			res.ForgeQuorum.Observe(float64(a), ob.forgeQuorum)
			res.ForgeSingle.Observe(float64(a), ob.forgeSingle)
		}
	}
	return res, nil
}

// keyFromRNG draws a crypt.Key from the committee's seed stream.
func keyFromRNG(rng *xrand.RNG) crypt.Key {
	var b [crypt.KeySize]byte
	for i := 0; i < len(b); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return crypt.KeyFromBytes(b[:])
}

// Table renders the capture sweep.
func (r *AuthorityResilienceResult) Table() string {
	return fmt.Sprintf("Authority resilience: %d-of-%d committee vs single base station, n=%d, density 10\n", r.T, r.M, r.N) +
		"x = captured authority replicas; eviction coverage of the target cluster\n" +
		stats.Table("captured", r.Evict, r.ForgeQuorum, r.ForgeSingle)
}
