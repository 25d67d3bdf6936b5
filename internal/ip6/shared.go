package ip6

import "sync"

// Space6 is the IPv6 shared hash-cons universe: the sub-trie index and
// leaf table of §4.1 spanned across many tenant DAGs, so an isomorphic
// folded subtree appearing in any number of near-identical VRF tables
// is stored once on the writer side. Unlike the IPv4 Space there is no
// shared serialized arena — the v6 serializers' dirty-subtree group
// geometry is inherently per-DAG, so each tenant publishes its own
// blob buffers and the cross-tenant saving is in the model (writer)
// memory, not the serialized bytes. Those per-tenant blobs stay small
// because each member DAG is folded with its shard window
// (FromTrieShared): a shard blob carries only that shard's root slots
// and the folded groups covering them, so an empty tenant costs
// 2^(λ−k) root words plus one slack region per covering group per
// shard, not a full 2^λ root per shard. The space-wide epoch counter is
// what keeps those per-tenant serializations sound: stamps written on
// shared nodes through one member DAG can never alias an epoch another
// member draws.
//
// All mutation of member DAGs must happen under the space lock;
// lookups on published blobs never touch the space.
type Space6 struct {
	mu     sync.Mutex
	sub    map[[2]uint64]*dnode
	leaves map[uint32]*dnode
	nextID uint64
	epoch  uint64
}

// NewSpace6 creates an empty shared IPv6 hash-cons space.
func NewSpace6() *Space6 {
	return &Space6{
		sub:    make(map[[2]uint64]*dnode),
		leaves: make(map[uint32]*dnode),
	}
}

// Lock acquires the space's write exclusion.
func (sp *Space6) Lock() { sp.mu.Lock() }

// Unlock releases the space's write exclusion.
func (sp *Space6) Unlock() { sp.mu.Unlock() }

// FoldedInterior reports the number of shared interior nodes (|S|)
// across every member DAG.
func (sp *Space6) FoldedInterior() int { return len(sp.sub) }

// FromTrieShared is FromTrieWindow folding into a shared space: the
// DAG's sub-trie index and leaf table are the space's own maps, and
// interior ids draw from the space-wide counter so cons keys never
// collide across members. The caller must hold the space lock.
func FromTrieShared(sp *Space6, tr *Trie, lambda, shard, shardBits int) (*DAG, error) {
	return newDAG(tr.Clone(), lambda, shard, shardBits, sp)
}

// Release drops every folded reference the DAG's plain region holds,
// returning its share of the space's nodes — the teardown a shared
// Reload or tenant removal needs so replaced tables do not pin their
// subtrees in the space forever. The DAG is unusable afterwards.
// Called under the space lock; harmless for a private DAG.
func (d *DAG) Release() {
	d.releaseTree(d.root)
	d.root = nil
}

func (d *DAG) releaseTree(n *dnode) {
	if n == nil {
		return
	}
	if n.kind != kindUp {
		d.release(n)
		return
	}
	l, r := n.left, n.right
	d.recycleDnode(n)
	d.releaseTree(l)
	d.releaseTree(r)
}
