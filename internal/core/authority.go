package core

import (
	"repro/internal/crypt"
	"repro/internal/node"
)

// Authority is the pre-deployment trust root — the manufacturing-phase
// process of Section IV-A that assigns every node "a unique ID that
// identifies [it] in the network, as well as three symmetric keys", and
// hands the base station "all the ID numbers and keys used in the network
// before the deployment phase".
//
// All keys are derived from a single root key so that a simulation seed
// reproduces the entire key hierarchy:
//
//	Ki  = F(root, LabelNode, i)      node key, shared with the base station
//	Kci = F(KMC, LabelCluster, i)    candidate cluster key (Section IV-E
//	                                 requires exactly this structure so new
//	                                 nodes can re-derive cluster keys)
//	Km  = F(root, "master")          network master key, erased after setup
//	KMC = F(root, "add-master")      addition master, given to new nodes
//
// The revocation hash chain (Section IV-D) is also rooted here; its
// commitment K0 is preloaded into every node.
type Authority struct {
	root  crypt.Key
	km    crypt.Key
	kmc   crypt.Key
	chain *crypt.Chain
}

// NewAuthority derives the deployment's key hierarchy from a root key.
// chainLength is the number of revocation commands supported.
func NewAuthority(root crypt.Key, chainLength int) *Authority {
	return &Authority{
		root:  root,
		km:    crypt.DeriveKey(root, crypt.LabelNode, []byte("network-master")),
		kmc:   crypt.DeriveKey(root, crypt.LabelNode, []byte("addition-master")),
		chain: crypt.NewChain(root, chainLength),
	}
}

// AuthorityFromSeed derives a deterministic authority from a simulation
// seed. Real deployments would use NewAuthority with a crypt.RandomKey.
func AuthorityFromSeed(seed uint64, chainLength int) *Authority {
	var root crypt.Key
	for i := 0; i < 8; i++ {
		root[i] = byte(seed >> (8 * i))
	}
	// Spread the seed through the PRF so nearby seeds give unrelated
	// hierarchies.
	root = crypt.DeriveKey(root, crypt.LabelNode, []byte("authority-root"))
	return NewAuthority(root, chainLength)
}

// Material is the key load of one pre-deployed node.
type Material struct {
	ID                  node.ID
	NodeKey             crypt.Key // Ki
	CandidateClusterKey crypt.Key // Kci = F(KMC, i)
	Master              crypt.Key // Km (zero for late-deployed nodes)
	AddMaster           crypt.Key // KMC (zero for original nodes)
	ChainCommit         crypt.Key // K0 of the revocation chain
}

// MaterialFor provisions an original (pre-deployment) node: it carries Km
// but not KMC.
func (a *Authority) MaterialFor(id node.ID) Material {
	return Material{
		ID:                  id,
		NodeKey:             a.NodeKey(id),
		CandidateClusterKey: a.ClusterKeyOf(id),
		Master:              a.km,
		ChainCommit:         a.chain.Commitment(),
	}
}

// LateMaterialFor provisions a node added after the initial deployment
// (Section IV-E): it carries KMC but not Km — the master key era is over
// by the time it ships.
func (a *Authority) LateMaterialFor(id node.ID) Material {
	return Material{
		ID:                  id,
		NodeKey:             a.NodeKey(id),
		CandidateClusterKey: a.ClusterKeyOf(id),
		AddMaster:           a.kmc,
		ChainCommit:         a.chain.Commitment(),
	}
}

// MobileMaterialFor provisions a mobile node: it carries both Km (it
// participates in the initial key setup like any original node) and KMC
// (so it can re-derive cluster keys and re-join via Section IV-E after
// drifting out of its cluster's range — see docs/MOBILITY.md). The
// retained KMC is a deliberate widening of the capture surface: seizing
// a mobile node post-setup reveals the cluster-key derivation root,
// which seizing a settled original node does not. Deployments accept it
// only for the node subset that actually moves.
func (a *Authority) MobileMaterialFor(id node.ID) Material {
	m := a.MaterialFor(id)
	m.AddMaster = a.kmc
	return m
}

// NodeKey returns Ki — the base station uses this registry to verify and
// decrypt Step-1 envelopes.
func (a *Authority) NodeKey(id node.ID) crypt.Key {
	return crypt.DeriveID(a.root, crypt.LabelNode, id)
}

// ClusterKeyOf returns the epoch-0 cluster key Kci = F(KMC, i) of the node
// with the given ID (valid whether or not that node became a clusterhead).
func (a *Authority) ClusterKeyOf(cid uint32) crypt.Key {
	return crypt.DeriveID(a.kmc, crypt.LabelCluster, cid)
}

// Chain returns the revocation hash chain. Only the base station may hold
// this; nodes get just the commitment.
func (a *Authority) Chain() *crypt.Chain { return a.chain }

// keyStoreFor builds the runtime KeyStore matching a Material.
func keyStoreFor(m Material) *node.KeyStore {
	ks := node.NewKeyStore(m.NodeKey, m.CandidateClusterKey, m.Master, m.ChainCommit, maxChainSkip)
	ks.AddMaster = m.AddMaster
	return ks
}
