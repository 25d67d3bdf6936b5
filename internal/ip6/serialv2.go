package ip6

import (
	"fmt"
	"math/bits"
)

// BlobV2 is the stride-compressed serialized IPv6 lookup structure:
// the same root window as Blob (so the shardfib merged-root splice
// works unchanged), but with the folded region level-compressed
// into stride-4 tree-bitmap nodes, exactly the IPv4 v2 format
// (pdag.BlobV2) widened to 128-bit walks. Where Blob spends one
// dependent memory touch per trie level below the barrier — up to
// W−λ = 112 at the default λ=16 — BlobV2 consumes four address bits
// per node, cutting the dependent chain to ⌈(W−λ)/4⌉ ≈ 28 touches.
//
// Node record layout, starting at word offset `off` in Words:
//
//	Words[off]      bitmaps: external<<16 | internal
//	Words[off+1..]  popcount-indexed child words, one per set
//	                external bit, in ascending chunk order; each is
//	                either an inlined depth-4 leaf (bit 31 set, label
//	                in the low byte) or the word offset of the child
//	                stride node
//	Words[..]       internal leaf labels, packed four per word in
//	                ascending heap-position order
//
// See pdag.BlobV2 for the bitmap semantics; the leaf-pushed proper
// form keeps internal positions disjoint, so the in-node longest
// match is one masked popcount. Hash-consed sharing survives: child
// words are explicit offsets, so a subtree shared across barrier
// slots or stride parents is emitted once per group and referenced.
type BlobV2 struct {
	Lambda   int
	Root     []uint32 // the window's root entries, encoded as Blob.Root
	Words    []uint32 // stride-node records, variable length
	RootBase int      // offset of Root[0] in the full 2^λ array, as on Blob

	// Incremental-republish stamps, exactly as on Blob.
	owner  *DAG
	geoGen uint64
	gen    uint64
}

// strideIntMask[c] selects the internal-bitmap positions on the path
// of chunk c: heap positions 2+(c>>3), 4+(c>>2) and 8+(c>>1), the
// depth-1..3 ancestors of depth-4 slot c.
var strideIntMask = [16]uint16{
	0x0114, 0x0114, 0x0214, 0x0214, 0x0424, 0x0424, 0x0824, 0x0824,
	0x1048, 0x1048, 0x2048, 0x2048, 0x4088, 0x4088, 0x8088, 0x8088,
}

// strideExp is the 4-level expansion of one folded interior node, the
// scratch between the binary DAG and one serialized stride node. It
// lives on the DAG (serialExps, reused across republishes) so
// expansion allocates nothing at steady state.
type strideExp struct {
	intBM  uint16
	extBM  uint16
	leafAt [16]uint8  // internal leaf label, indexed by heap position
	child  [16]*dnode // external child, indexed by chunk; nil = leaf
	leaf4  [16]uint8  // inlined depth-4 leaf label, indexed by chunk
}

// words reports the serialized size of the expansion in 32-bit words.
func (s *strideExp) words() uint32 {
	return 1 + uint32(bits.OnesCount16(s.extBM)) + uint32(bits.OnesCount16(s.intBM)+3)/4
}

// expand fills s with the stride-4 expansion of interior node n.
func (s *strideExp) expand(n *dnode) {
	s.intBM, s.extBM = 0, 0
	s.walk(n.left, 2, 1)
	s.walk(n.right, 3, 1)
}

// walk descends the binary subtree below the stride root, recording
// leaves met before the stride boundary in the internal bitmap and
// everything at the boundary in the external one. pos is the heap
// position (2^depth + path).
func (s *strideExp) walk(n *dnode, pos uint32, depth int) {
	if n.kind == kindLeaf {
		if depth == 4 {
			chunk := pos - 16
			s.extBM |= 1 << chunk
			s.child[chunk] = nil
			s.leaf4[chunk] = uint8(n.label)
			return
		}
		s.intBM |= 1 << pos
		s.leafAt[pos] = uint8(n.label)
		return
	}
	if depth == 4 {
		chunk := pos - 16
		s.extBM |= 1 << chunk
		s.child[chunk] = n
		return
	}
	s.walk(n.left, 2*pos, depth+1)
	s.walk(n.right, 2*pos+1, depth+1)
}

// SerializeV2 freezes the DAG into a fresh BlobV2. Like Serialize it
// advances the DAG's stamping epoch, so it must run under the same
// exclusion that guards Set/Delete.
func (d *DAG) SerializeV2() (*BlobV2, error) {
	return d.SerializeV2Into(nil)
}

// SerializeV2Into freezes the DAG into b, reusing b's Root and Words
// buffers when their capacity suffices; b == nil allocates a fresh
// blob. The folded region is laid out with the same group geometry
// discipline as SerializeInto (its own serialGeom, in word units): a
// buffer this DAG wrote under the current layout gets only its dirty
// groups re-emitted, in place, allocation-free. Same caveats: the DAG
// is mutated (take the writer's exclusion), the caller owns b's
// exclusivity, and on error b's contents are unspecified.
func (d *DAG) SerializeV2Into(b *BlobV2) (*BlobV2, error) {
	if d.Lambda > maxSerialLambda {
		return nil, fmt.Errorf("ip6: cannot serialize with barrier λ=%d > %d", d.Lambda, maxSerialLambda)
	}
	rootLen := d.rootLen
	d.groupPlan()
	if b != nil && b.owner == d && d.geo2.gen != 0 && b.geoGen == d.geo2.gen &&
		b.Lambda == d.Lambda && b.RootBase == d.rootBase && len(b.Root) == rootLen &&
		len(b.Words) == int(d.geo2.total) {
		if err := d.emitDirtyV2(b); err == nil {
			b.gen = d.mutGen
			return b, nil
		}
	}
	if b == nil {
		b = &BlobV2{}
	}
	b.Lambda, b.RootBase = d.Lambda, d.rootBase
	if cap(b.Root) >= rootLen {
		b.Root = b.Root[:rootLen]
	} else {
		b.Root = make([]uint32, rootLen)
	}
	var err error
	if d.geo2.gen != 0 {
		err = d.emitAllV2(b, false)
		if err == errRegionFull {
			err = d.emitAllV2(b, true)
		}
	} else {
		err = d.emitAllV2(b, true)
	}
	if err != nil {
		b.owner, b.geoGen = nil, 0
		return nil, err
	}
	b.owner, b.geoGen, b.gen = d, d.geo2.gen, d.mutGen
	return b, nil
}

// emitDirtyV2 re-emits only the window's groups mutated since b's
// generation.
func (d *DAG) emitDirtyV2(b *BlobV2) error {
	for g := d.groupLo; g < d.groupHi; g++ {
		if d.lastMut[g] <= b.gen {
			continue
		}
		if err := d.emitGroupV2(b, g, d.geo2.base[g]+d.geo2.capn[g], false); err != nil {
			return err
		}
	}
	return nil
}

// emitAllV2 serializes every group of the window; see emitAllV1 for
// the relayout contract (shared geometry across double-buffered
// twins, slack on re-layout, generation advance only when bases
// move, no slack outside the window).
func (d *DAG) emitAllV2(b *BlobV2, relayout bool) error {
	d.geo2.ensure(len(d.lastMut))
	if !relayout {
		need := int(d.geo2.total)
		if need > cap(b.Words) {
			b.Words = make([]uint32, need)
		} else {
			b.Words = b.Words[:need]
		}
		for g := d.groupLo; g < d.groupHi; g++ {
			if err := d.emitGroupV2(b, g, d.geo2.base[g]+d.geo2.capn[g], false); err != nil {
				return err
			}
		}
		return nil
	}
	watermark := uint32(0)
	for g := d.groupLo; g < d.groupHi; g++ {
		d.geo2.base[g] = watermark
		if err := d.emitGroupV2(b, g, serialNoLimit, true); err != nil {
			return err
		}
		used := d.geo2.used[g]
		d.geo2.capn[g] = used + used/8 + 8
		watermark += d.geo2.capn[g]
	}
	d.geo2.total = watermark
	need := int(watermark)
	if need > cap(b.Words) {
		nn := make([]uint32, need)
		copy(nn, b.Words)
		b.Words = nn
	} else {
		b.Words = b.Words[:need]
	}
	d.geoSeq++
	d.geo2.gen = d.geoSeq
	return nil
}

// emitGroupV2 re-serializes one group under a fresh stamping epoch
// (stride sharing stays confined to the group) and emits its stride
// records immediately, while the stamps are valid — a later group may
// restamp a shared subtree at a different offset. limit bounds the
// word region (exclusive); grow extends b.Words as the re-layout pass
// discovers sizes.
func (d *DAG) emitGroupV2(b *BlobV2, g int, limit uint32, grow bool) error {
	base := d.geo2.base[g]
	d.nextEpoch()
	d.serialList = d.serialList[:0]
	d.serialExps = d.serialExps[:0]
	d.serialBase = base
	d.serialLimit = limit
	d.serialWatermark = base
	if err := d.fillRoot(b.Root, d.groupNode[g], uint32(g), d.groupBits(), d.groupDef[g], d.assignV2); err != nil {
		return err
	}
	used := d.serialWatermark - base
	if grow {
		need := int(base + used)
		if need > cap(b.Words) {
			nn := make([]uint32, need, need+need/2)
			copy(nn, b.Words)
			b.Words = nn
		} else if need > len(b.Words) {
			b.Words = b.Words[:need]
		}
	}
	for i, n := range d.serialList {
		emitStride(b.Words, n.serialIdx, &d.serialExps[i])
	}
	d.geo2.used[g] = used
	return nil
}

// assignV2 gives the folded subtree rooted at n a stride-node word
// offset in the current group's region, expanding and stamping its
// whole reachable stride DAG on first contact. Shared subtrees
// reached again within the group return their stamped offset.
func (d *DAG) assignV2(root *dnode) (uint32, error) {
	epoch := d.serialEpoch
	if root.serialEpoch == epoch {
		return root.serialIdx, nil
	}
	root.serialEpoch = epoch
	stack := append(d.serialStack[:0], root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Expand in place at the node's slot of the kept expansion
		// list; at steady state the list never regrows, so appends
		// cost nothing.
		if len(d.serialExps) < cap(d.serialExps) {
			d.serialExps = d.serialExps[:len(d.serialExps)+1]
		} else {
			d.serialExps = append(d.serialExps, strideExp{})
		}
		exp := &d.serialExps[len(d.serialExps)-1]
		exp.expand(n)
		if d.serialWatermark > maxBlobIdx {
			d.serialStack = stack
			return 0, fmt.Errorf("ip6: folded region too large to serialize (%d words)", d.serialWatermark)
		}
		if d.serialWatermark+exp.words() > d.serialLimit {
			d.serialStack = stack
			return 0, errRegionFull
		}
		n.serialIdx = d.serialWatermark
		d.serialWatermark += exp.words()
		d.serialList = append(d.serialList, n)
		// Push unvisited stride children right to left so the leftmost
		// child is expanded next and siblings take nearby offsets.
		for bm := exp.extBM; bm != 0; {
			chunk := 15 - bits.LeadingZeros16(bm)
			bm &^= 1 << chunk
			if c := exp.child[chunk]; c != nil && c.serialEpoch != epoch {
				c.serialEpoch = epoch
				stack = append(stack, c)
			}
		}
	}
	d.serialStack = stack
	return root.serialIdx, nil
}

// emitStride writes one stride-node record at its stamped offset.
// Every word of the record is written, so reused buffers need no
// pre-clearing.
func emitStride(words []uint32, off uint32, s *strideExp) {
	words[off] = uint32(s.extBM)<<16 | uint32(s.intBM)
	w := off + 1
	for bm := s.extBM; bm != 0; bm &= bm - 1 {
		chunk := bits.TrailingZeros16(bm)
		if c := s.child[chunk]; c != nil {
			words[w] = c.serialIdx
		} else {
			words[w] = wordLeafFlag | uint32(s.leaf4[chunk])
		}
		w++
	}
	ri := 0
	var packed uint32
	for bm := s.intBM; bm != 0; bm &= bm - 1 {
		pos := bits.TrailingZeros16(bm)
		packed |= uint32(s.leafAt[pos]) << (uint(ri&3) * 8)
		if ri&3 == 3 {
			words[w] = packed
			w, packed = w+1, 0
		}
		ri++
	}
	if ri&3 != 0 {
		words[w] = packed
	}
}

// lookupWalkV2 is the scalar walk of the v2 blob: one root-array
// access, then one stride node per four levels below the barrier,
// the remaining address bits streamed out of the (hi, lo) shift
// register a nibble at a time. depth counts stride records entered.
func lookupWalkV2(b *BlobV2, addr Addr) (label uint32, depth int) {
	ri := int(addr.Hi>>uint(64-b.Lambda)) - b.RootBase
	e := b.Root[ri]
	best := e >> 24
	pay := e & 0x00FFFFFF
	if pay == blobNone {
		return best, 0
	}
	if pay&blobLeafFlag != 0 {
		if l := pay & 0xFF; l != NoLabel {
			best = l
		}
		return best, 0
	}
	off := pay
	hi, lo := shiftCursor(addr, b.Lambda)
	// Every path of the folded region ends in a leaf by depth W, so
	// the loop bound is defensive, exactly like v1's.
	for q := b.Lambda; q < W; q += 4 {
		depth++
		w0 := b.Words[off]
		intBM, extBM := uint16(w0), uint16(w0>>16)
		c := uint32(hi >> 60)
		if hit := intBM & strideIntMask[c]; hit != 0 {
			// The leaf-pushed form keeps internal positions disjoint:
			// hit has exactly one set bit, the leaf covering this path.
			ne := uint32(bits.OnesCount16(extBM))
			riW := uint32(bits.OnesCount16(intBM & (hit - 1)))
			if l := b.Words[off+1+ne+riW>>2] >> ((riW & 3) * 8) & 0xFF; l != NoLabel {
				best = l
			}
			return best, depth
		}
		if extBM>>c&1 == 0 {
			return best, depth // unreachable on a well-formed blob
		}
		cw := b.Words[off+1+uint32(bits.OnesCount16(extBM&(1<<c-1)))]
		if cw&wordLeafFlag != 0 {
			if l := cw & 0xFF; l != NoLabel {
				best = l
			}
			return best, depth
		}
		off = cw
		hi = hi<<4 | lo>>60
		lo <<= 4
	}
	return best, depth
}

// Lookup performs longest prefix match on the stride-compressed form,
// bit-identical to Blob.Lookup on the same DAG. addr must fall inside
// the blob's window.
func (b *BlobV2) Lookup(addr Addr) uint32 {
	label, _ := lookupWalkV2(b, addr)
	return label
}

// LookupDepth is Lookup instrumented with the number of stride nodes
// entered below the root array — the dependent-touch chain length,
// ⌈depth_v1/4⌉ for the same walk.
func (b *BlobV2) LookupDepth(addr Addr) (label uint32, depth int) {
	return lookupWalkV2(b, addr)
}

// SizeBytes reports the byte size of the serialized structure.
func (b *BlobV2) SizeBytes() int {
	return 4 * (len(b.Root) + len(b.Words))
}
