package ip6

import "math/bits"

// Batch lookup: software-pipelined walking of the serialized IPv6
// blob, the same two-pass schedule as the IPv4 lanes (pdag.lanes):
//
//  1. a fetch pass issues the independent root-array loads for a
//     whole chunk back to back, overlapping their cache misses;
//  2. a resolve pass finishes root-terminated lookups, walks short
//     folded paths inline, and parks the deep survivors into
//     BatchLanes interleaved lanes that advance one level per
//     iteration — each lane carrying a two-word shift-register
//     cursor over the remaining address bits, so the dependent node
//     fetches of the deep 128-bit walks are in flight concurrently.
//
// Results are always bit-identical to scalar Blob.Lookup; only the
// schedule of memory accesses differs.

// BatchLanes is the number of deep walks advanced in lockstep,
// matching the IPv4 engine.
const BatchLanes = 8

// batchChunk is the fetch-pass granularity.
const batchChunk = 256

// laneDepth is how many folded levels the resolve pass walks inline
// before parking a lookup in the lanes. IPv6 walks run deeper than
// IPv4's on average (W−λ is much larger), but the survivors-resolve-
// fast observation carries over: most folded regions bottom out
// within a few words of the barrier.
const laneDepth = 2

// laneState holds the parked deep walks: per lane the node cursor,
// the remaining address bits as a (hi, lo) shift register, the best
// label so far, the batch position the result lands in, and the
// owning blob's node words (lanes may walk different shards' blobs).
type laneState struct {
	idx   [BatchLanes]uint32
	hi    [BatchLanes]uint64
	lo    [BatchLanes]uint64
	best  [BatchLanes]uint32
	pos   [BatchLanes]int
	nodes [BatchLanes][]uint32
	n     int
}

// park adds a walk that is still unresolved at the lane entry level.
func (ls *laneState) park(idx uint32, hi, lo uint64, best uint32, pos int, nodes []uint32) {
	l := ls.n
	ls.idx[l], ls.hi[l], ls.lo[l], ls.best[l], ls.pos[l], ls.nodes[l] = idx, hi, lo, best, pos, nodes
	ls.n = l + 1
}

// run advances every parked walk one level per iteration from level
// q0 until all have resolved, then scatters the labels into dst and
// empties the lanes. Every parked walk is at the same level, so one
// lockstep level counter serves all lanes; the loads of live lanes
// within a level are mutually independent — the memory-level
// parallelism this structure exists for.
func (ls *laneState) run(dst []uint32, q0 int) {
	if ls.n == 0 {
		return
	}
	live := uint32(1)<<uint(ls.n) - 1
	for q := q0; q < W && live != 0; q++ {
		for m := live; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			w := ls.nodes[l][2*ls.idx[l]+uint32(ls.hi[l]>>63)]
			ls.hi[l] = ls.hi[l]<<1 | ls.lo[l]>>63
			ls.lo[l] <<= 1
			if w&wordLeafFlag != 0 {
				if lab := w & 0xFF; lab != NoLabel {
					ls.best[l] = lab
				}
				live &^= 1 << uint(l)
				continue
			}
			ls.idx[l] = w
		}
	}
	for l := 0; l < ls.n; l++ {
		dst[ls.pos[l]] = ls.best[l]
	}
	ls.n = 0
}

// depth0Label resolves a root entry that terminates the lookup (leaf
// flag set, which blobNone also carries) without a data-dependent
// branch, exactly as the IPv4 resolve pass does.
func depth0Label(e, p uint32) uint32 {
	best := e >> 24
	lab := p & 0xFF
	d := p ^ blobNone
	take := 0 - (((d | (0 - d)) >> 31) & ((lab | (0 - lab)) >> 31))
	return (best &^ take) | (lab & take)
}

// LookupBatchInto resolves addrs[i] into dst[i] for every address in
// the batch, bit-identically to calling Lookup per address. dst must
// be at least len(addrs) long. The single-blob walk is the merged
// walk with a one-entry nodes table and no shard bits, so the hot
// loop exists exactly once.
func (b *Blob) LookupBatchInto(dst []uint32, addrs []Addr) {
	if b.RootBase != 0 || len(b.Root) != 1<<uint(b.Lambda) {
		// A shard blob carries only its window at offset RootBase,
		// which the merged fetch pass cannot index; walk it scalar
		// (the sharded engine splices windows into a merged root and
		// never takes this path).
		for i, a := range addrs {
			dst[i] = b.Lookup(a)
		}
		return
	}
	nodes := [1][]uint32{b.Nodes}
	LookupBatchMerged(dst, addrs, b.Root, nodes[:], 0, b.Lambda)
}

// LookupBatch is LookupBatchInto allocating the result slice.
func (b *Blob) LookupBatch(addrs []Addr) []uint32 {
	dst := make([]uint32, len(addrs))
	b.LookupBatchInto(dst, addrs)
	return dst
}

// LookupBatchMerged is the sharded IPv6 engine's hot loop. root is a
// merged root array: the live 2^(λ-k) slot range of every shard's
// blob root concatenated in shard order (valid because slot index top
// bits equal address top bits when λ ≥ k); nodes holds each shard's
// blob node words, consulted only by walks that descend below the
// barrier. All shards must share lambda. Results are bit-identical to
// looking each address up in its own shard's blob.
func LookupBatchMerged(dst []uint32, addrs []Addr, root []uint32, nodes [][]uint32, shardBits, lambda int) {
	dst = dst[:len(addrs)]
	for i := 0; i < len(addrs); i += batchChunk {
		j := i + batchChunk
		if j > len(addrs) {
			j = len(addrs)
		}
		lookupChunkMerged(dst[i:j], addrs[i:j], root, nodes, shardBits, lambda)
	}
}

func lookupChunkMerged(dst []uint32, addrs []Addr, root []uint32, nodes [][]uint32, shardBits, lambda int) {
	var ebuf [batchChunk]uint32
	shift := uint(64 - lambda)
	kshift := uint(64 - shardBits)
	for i, a := range addrs {
		ebuf[i] = root[a.Hi>>shift]
	}
	deepQ := lambda + laneDepth
	if deepQ > W {
		deepQ = W
	}
	var ls laneState
	for i, a := range addrs {
		e := ebuf[i]
		p := e & 0x00FFFFFF
		if p&blobLeafFlag != 0 {
			dst[i] = depth0Label(e, p)
			continue
		}
		nd := nodes[a.Hi>>kshift]
		best := e >> 24
		idx := p
		hi, lo := shiftCursor(a, lambda)
		q := lambda
		for ; q < deepQ; q++ {
			w := nd[2*idx+uint32(hi>>63)]
			hi = hi<<1 | lo>>63
			lo <<= 1
			if w&wordLeafFlag != 0 {
				if lab := w & 0xFF; lab != NoLabel {
					best = lab
				}
				q = -1 // resolved
				break
			}
			idx = w
		}
		if q < 0 || deepQ >= W {
			dst[i] = best
			continue
		}
		ls.park(idx, hi, lo, best, i, nd)
		if ls.n == BatchLanes {
			ls.run(dst, deepQ)
		}
	}
	ls.run(dst, deepQ)
}
