package ip6

import "math/bits"

// Batch lookup over the stride-compressed IPv6 format. The schedule
// is the one lanes.go established — a fetch pass overlapping the
// root-array loads of the whole chunk, a resolve pass finishing
// root-terminated lookups branchlessly and walking the first stride
// inline, and interleaved lanes for the deep survivors — but a parked
// lane advances one *stride* (four trie levels) per iteration instead
// of one bit, carrying the remaining address bits in a two-word
// (hi, lo) shift register that feeds a nibble per step. The dependent
// chain the lanes overlap is a quarter of v1's: ~28 iterations for a
// full 128-bit walk at λ=16 instead of 112. Results are always
// bit-identical to scalar BlobV2.Lookup (itself pinned to
// Blob.Lookup).

// BatchLanesV2 is the v2 walker's lane count, matching the v1
// walker's. (Sixteen lanes were tried to cover the v2 stride's longer
// two-load dependent chain; the larger lane state costs more than the
// extra overlap buys.)
const BatchLanesV2 = BatchLanes

// laneStateV2 holds the parked deep walks of the v2 walker: per lane
// the word offset of the stride node to enter next, the remaining
// address bits (pre-shifted so bits 63..60 of hi are the next chunk),
// the best label so far, the batch position the result lands in, and
// the owning blob's stride words (lanes may walk different shards'
// blobs).
type laneStateV2 struct {
	off   [BatchLanesV2]uint32
	hi    [BatchLanesV2]uint64
	lo    [BatchLanesV2]uint64
	best  [BatchLanesV2]uint32
	pos   [BatchLanesV2]int
	words [BatchLanesV2][]uint32
	n     int
}

// park adds a walk still unresolved at stride boundary q0.
func (ls *laneStateV2) park(off uint32, hi, lo uint64, best uint32, pos int, words []uint32) {
	l := ls.n
	ls.off[l], ls.hi[l], ls.lo[l], ls.best[l], ls.pos[l], ls.words[l] = off, hi, lo, best, pos, words
	ls.n = l + 1
}

// run advances every parked walk one stride per iteration from level
// q0 until all have resolved, then scatters the labels into dst and
// empties the lanes. All parked walks are at the same level, so one
// lockstep counter serves every lane; the stride-node loads of live
// lanes within an iteration are mutually independent.
func (ls *laneStateV2) run(dst []uint32, q0 int) {
	if ls.n == 0 {
		return
	}
	live := uint32(1)<<uint(ls.n) - 1
	for q := q0; q < W && live != 0; q += 4 {
		for m := live; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ws := ls.words[l]
			w0 := ws[ls.off[l]]
			intBM, extBM := uint16(w0), uint16(w0>>16)
			c := uint32(ls.hi[l] >> 60)
			// Most strides on a deep chain carry no internal labels at
			// all; testing intBM first keeps the mask-table load off the
			// common descend path.
			if intBM != 0 {
				if hit := intBM & strideIntMask[c]; hit != 0 {
					ne := uint32(bits.OnesCount16(extBM))
					ri := uint32(bits.OnesCount16(intBM & (hit - 1)))
					if lab := ws[ls.off[l]+1+ne+ri>>2] >> ((ri & 3) * 8) & 0xFF; lab != NoLabel {
						ls.best[l] = lab
					}
					live &^= 1 << uint(l)
					continue
				}
			}
			if extBM>>c&1 == 0 {
				live &^= 1 << uint(l) // unreachable on a well-formed blob
				continue
			}
			cw := ws[ls.off[l]+1+uint32(bits.OnesCount16(extBM&(1<<c-1)))]
			if cw&wordLeafFlag != 0 {
				if lab := cw & 0xFF; lab != NoLabel {
					ls.best[l] = lab
				}
				live &^= 1 << uint(l)
				continue
			}
			ls.off[l] = cw
			ls.hi[l] = ls.hi[l]<<4 | ls.lo[l]>>60
			ls.lo[l] <<= 4
		}
	}
	for l := 0; l < ls.n; l++ {
		dst[ls.pos[l]] = ls.best[l]
	}
	ls.n = 0
}

// LookupBatchInto resolves addrs[i] into dst[i] for every address in
// the batch, bit-identically to calling Lookup per address. dst must
// be at least len(addrs) long. As in v1, the single-blob walk is the
// merged walk with a one-entry words table and no shard bits.
func (b *BlobV2) LookupBatchInto(dst []uint32, addrs []Addr) {
	if b.RootBase != 0 || len(b.Root) != 1<<uint(b.Lambda) {
		// A shard window: scalar, as for Blob.
		for i, a := range addrs {
			dst[i] = b.Lookup(a)
		}
		return
	}
	words := [1][]uint32{b.Words}
	LookupBatchMergedV2(dst, addrs, b.Root, words[:], 0, b.Lambda)
}

// LookupBatch is LookupBatchInto allocating the result slice.
func (b *BlobV2) LookupBatch(addrs []Addr) []uint32 {
	dst := make([]uint32, len(addrs))
	b.LookupBatchInto(dst, addrs)
	return dst
}

// LookupBatchMergedV2 is the sharded IPv6 engine's hot loop over v2
// snapshots: root is the same merged root array the v1 walker reads
// (the two formats share the root-entry encoding), and words holds
// each shard's stride records. All shards must share lambda. Results
// are bit-identical to looking each address up in its own shard's v2
// blob.
func LookupBatchMergedV2(dst []uint32, addrs []Addr, root []uint32, words [][]uint32, shardBits, lambda int) {
	dst = dst[:len(addrs)]
	for i := 0; i < len(addrs); i += batchChunk {
		j := i + batchChunk
		if j > len(addrs) {
			j = len(addrs)
		}
		lookupChunkMergedV2(dst[i:j], addrs[i:j], root, words, shardBits, lambda)
	}
}

func lookupChunkMergedV2(dst []uint32, addrs []Addr, root []uint32, words [][]uint32, shardBits, lambda int) {
	var ebuf [batchChunk]uint32
	shift := uint(64 - lambda)
	kshift := uint(64 - shardBits)
	for i, a := range addrs {
		ebuf[i] = root[a.Hi>>shift]
	}
	// One stride inline: most survivors of the root resolve terminate
	// in the first stride node, and parking those would cost more than
	// their walk.
	deepQ := lambda + 4
	var ls laneStateV2
	for i, a := range addrs {
		e := ebuf[i]
		p := e & 0x00FFFFFF
		if p&blobLeafFlag != 0 {
			dst[i] = depth0Label(e, p)
			continue
		}
		ws := words[a.Hi>>kshift]
		best := e >> 24
		off := p
		hi, lo := shiftCursor(a, lambda)
		w0 := ws[off]
		intBM, extBM := uint16(w0), uint16(w0>>16)
		c := uint32(hi >> 60)
		if hit := intBM & strideIntMask[c]; hit != 0 {
			ne := uint32(bits.OnesCount16(extBM))
			ri := uint32(bits.OnesCount16(intBM & (hit - 1)))
			if lab := ws[off+1+ne+ri>>2] >> ((ri & 3) * 8) & 0xFF; lab != NoLabel {
				best = lab
			}
			dst[i] = best
			continue
		}
		if extBM>>c&1 == 0 {
			dst[i] = best
			continue
		}
		// Read the child word before parking: the first stride's
		// inlined depth-4 leaves resolve here, exactly as the scalar
		// walk does — the width-boundary ordering the IPv4 v2 walker
		// pinned after its inlined-leaf differential failure.
		cw := ws[off+1+uint32(bits.OnesCount16(extBM&(1<<c-1)))]
		if cw&wordLeafFlag != 0 {
			if lab := cw & 0xFF; lab != NoLabel {
				best = lab
			}
			dst[i] = best
			continue
		}
		ls.park(cw, hi<<4|lo>>60, lo<<4, best, i, ws)
		if ls.n == BatchLanesV2 {
			ls.run(dst, deepQ)
		}
	}
	ls.run(dst, deepQ)
}
