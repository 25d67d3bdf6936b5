package ip6

import (
	"math/rand"
	"testing"
)

// TestBlobV2Equivalence pins the stride-compressed blob — scalar walk
// and interleaved stride lanes — bit-identical to the trie reference,
// the DAG, and the v1 blob across the barrier sweep.
func TestBlobV2Equivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	tab, err := SplitFIB(rng, 3000, []float64{0.5, 0.3, 0.15, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ref := FromTable(tab)
	probes := probesFor(tab, rng, 4096)
	for _, lambda := range []int{0, 2, 8, 11, 16, 24} {
		d, err := Build(tab, lambda)
		if err != nil {
			t.Fatal(err)
		}
		b1, err := d.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		b2, err := d.SerializeV2()
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]uint32, len(probes))
		b2.LookupBatchInto(dst, probes)
		for i, a := range probes {
			want := ref.Lookup(a)
			if got := b1.Lookup(a); got != want {
				t.Fatalf("λ=%d v1 %s: got %d, want %d", lambda, a, got, want)
			}
			if got := b2.Lookup(a); got != want {
				t.Fatalf("λ=%d v2 scalar %s: got %d, want %d", lambda, a, got, want)
			}
			if dst[i] != want {
				t.Fatalf("λ=%d v2 lanes %s: got %d, want %d", lambda, a, dst[i], want)
			}
		}
	}
}

// TestBlobV2DepthCompression checks the point of the format: the
// dependent-touch chain of a deep walk shrinks to ⌈depth_v1/4⌉.
func TestBlobV2DepthCompression(t *testing.T) {
	d, err := Build(New(), 16)
	if err != nil {
		t.Fatal(err)
	}
	a, plen, _ := MustParsePrefix3(t, "2001:db8::/64")
	if err := d.Set(a, plen, 3); err != nil {
		t.Fatal(err)
	}
	b2, err := d.SerializeV2()
	if err != nil {
		t.Fatal(err)
	}
	label, depth := b2.LookupDepth(a)
	if label != 3 {
		t.Fatalf("deep lookup: got %d, want 3", label)
	}
	// 64−16 = 48 folded levels → 12 stride nodes.
	if depth != 12 {
		t.Fatalf("deep walk entered %d stride nodes, want 12", depth)
	}
}

// MustParsePrefix3 is a test helper for ParsePrefix.
func MustParsePrefix3(t *testing.T, s string) (Addr, int, error) {
	t.Helper()
	a, plen, err := ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return a, plen, nil
}

// TestIncrementalMatchesFull is the dirty-subtree equivalence core:
// double-buffered republish through the dirty path must stay
// bit-identical (lookup-for-lookup) to the control FIB and to a fresh
// full serialize of an independent DAG fed the same state, for both
// formats. The alternating buffers exercise the generation-relative
// dirtiness (a spare is two publishes old) and the shared-geometry
// full pass that lets the second buffer join the incremental path.
func TestIncrementalMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	tab, err := SplitFIB(rng, 1500, []float64{0.6, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []int{0, 3, 8, 16} {
		d, err := Build(tab, lambda)
		if err != nil {
			t.Fatal(err)
		}
		var bufs1 [2]*Blob
		var bufs2 [2]*BlobV2
		probes := probesFor(tab, rng, 1024)
		for round := 0; round < 30; round++ {
			// A mix of deep updates (one group) and short-prefix
			// updates (covering a group run, including plen < gBits).
			for i := 0; i < 12; i++ {
				plen := 16 + rng.Intn(49)
				if i%5 == 4 {
					plen = 1 + rng.Intn(8)
				}
				a := Canonical(Addr{Hi: 0x2000000000000000 | rng.Uint64()>>3, Lo: rng.Uint64()}, plen)
				if rng.Intn(3) == 0 {
					d.Delete(a, plen)
				} else if err := d.Set(a, plen, uint32(1+rng.Intn(200))); err != nil {
					t.Fatal(err)
				}
			}
			b1, err := d.SerializeInto(bufs1[round&1])
			if err != nil {
				t.Fatal(err)
			}
			bufs1[round&1] = b1
			b2, err := d.SerializeV2Into(bufs2[round&1])
			if err != nil {
				t.Fatal(err)
			}
			bufs2[round&1] = b2
			if round%10 != 9 {
				for _, a := range probes {
					want := d.Control().Lookup(a)
					if got := b1.Lookup(a); got != want {
						t.Fatalf("λ=%d round %d v1 %s: %d != control %d", lambda, round, a, got, want)
					}
					if got := b2.Lookup(a); got != want {
						t.Fatalf("λ=%d round %d v2 %s: %d != control %d", lambda, round, a, got, want)
					}
				}
				continue
			}
			// Every tenth round: full cross-check against an
			// independent DAG (fresh geometry, fresh layout) and the
			// lanes walkers.
			fresh, err := FromTrie(d.Control(), lambda)
			if err != nil {
				t.Fatal(err)
			}
			f1, err := fresh.Serialize()
			if err != nil {
				t.Fatal(err)
			}
			f2, err := fresh.SerializeV2()
			if err != nil {
				t.Fatal(err)
			}
			dst1 := make([]uint32, len(probes))
			dst2 := make([]uint32, len(probes))
			b1.LookupBatchInto(dst1, probes)
			b2.LookupBatchInto(dst2, probes)
			for i, a := range probes {
				want := f1.Lookup(a)
				if got := f2.Lookup(a); got != want {
					t.Fatalf("λ=%d round %d fresh v1/v2 disagree at %s: %d != %d", lambda, round, a, got, want)
				}
				if dst1[i] != want {
					t.Fatalf("λ=%d round %d incremental v1 lanes %s: %d != full %d", lambda, round, a, dst1[i], want)
				}
				if dst2[i] != want {
					t.Fatalf("λ=%d round %d incremental v2 lanes %s: %d != full %d", lambda, round, a, dst2[i], want)
				}
			}
		}
	}
}

// TestSerializeV2IntoZeroAllocs is the v2 write-side contract: steady
// churn republished through the dirty path into retired buffers
// allocates nothing once buffers and scratch are warm.
func TestSerializeV2IntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	tab, err := SplitFIB(rng, 2000, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Build(tab, 16)
	if err != nil {
		t.Fatal(err)
	}
	type op struct {
		addr  Addr
		plen  int
		label uint32
	}
	ops := make([]op, 512)
	for i := range ops {
		plen := 20 + rng.Intn(45)
		ops[i] = op{
			addr:  Canonical(Addr{Hi: 0x2000000000000000 | rng.Uint64()>>3, Lo: rng.Uint64()}, plen),
			plen:  plen,
			label: uint32(1 + rng.Intn(200)),
		}
	}
	var bufs [2]*BlobV2
	serialize := func(i int) {
		b, err := d.SerializeV2Into(bufs[i&1])
		if err != nil {
			t.Fatal(err)
		}
		bufs[i&1] = b
	}
	for i, o := range ops { // warm the double buffer and scratch
		if err := d.Set(o.addr, o.plen, o.label); err != nil {
			t.Fatal(err)
		}
		serialize(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		o := ops[i&511]
		if err := d.Set(o.addr, o.plen, 1+uint32(i&1)); err != nil {
			t.Fatal(err)
		}
		serialize(i)
		i++
	})
	_ = allocs
	allocs = testing.AllocsPerRun(300, func() {
		serialize(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady v2 republish allocated %.2f times per serialize, want 0", allocs)
	}
}

// FuzzLookup6V2 drives the IPv6 DAG with an arbitrary byte-encoded
// update sequence across the barriers the serving engine uses —
// including λ=26, where both serializers must refuse — serializes it
// in both formats, and pins the v2 scalar walk and stride lanes
// bit-identical to the trie reference and to the v1 blob; a second
// label-flip phase then republishes into the same buffers through the
// dirty path and rechecks. The window arm (k from bits 2..3 of
// lambdaRaw) folds the DAG as the k-bit shard of the first op's
// address and probes only inside that window, as FuzzLookup6 does.
// The seed corpus in testdata/ pins the stride-boundary shapes
// (inlined depth-4 leaves right at the first stride, the 128-bit
// analogue of the v4 width-boundary bug) and a short prefix
// replicated across shards.
func FuzzLookup6V2(f *testing.F) {
	f.Add([]byte{1, 48, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(2))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, uint8(0))
	f.Add([]byte{2, 128, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255}, uint8(3))
	// plen = λ+4 exactly: the longest match is an inlined depth-4 leaf
	// at the first stride boundary.
	f.Add([]byte{1, 20, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(2))
	f.Fuzz(func(t *testing.T, ops []byte, lambdaRaw uint8) {
		lambda := [...]int{0, 8, 16, 26}[lambdaRaw%4]
		k := fuzzShardBits[(lambdaRaw>>2)%4]
		shard := fuzzShard(ops, k)
		d, err := FromTrieWindow(NewTrie(), lambda, shard, k)
		if err != nil {
			t.Fatal(err)
		}
		oracle := NewTrie()
		type rec struct {
			addr  Addr
			plen  int
			label uint32
		}
		var sets []rec
		var probes []Addr
		// Each op consumes 18 bytes: verb, plen, 16 address bytes. The
		// label derives from the verb byte.
		for len(ops) >= 18 {
			verb, plenRaw := ops[0], ops[1]
			var a Addr
			for i := 0; i < 8; i++ {
				a.Hi = a.Hi<<8 | uint64(ops[2+i])
				a.Lo = a.Lo<<8 | uint64(ops[10+i])
			}
			ops = ops[18:]
			plen := int(plenRaw) % (W + 1)
			a = Canonical(a, plen)
			if verb%3 == 0 {
				if d.Delete(a, plen) != oracle.Delete(a, plen) {
					t.Fatal("delete disagreement")
				}
			} else {
				label := uint32(verb%4) + 1
				if err := d.Set(a, plen, label); err != nil {
					t.Fatal(err)
				}
				oracle.Insert(a, plen, label)
				sets = append(sets, rec{a, plen, label})
			}
			m := Mask(plen)
			probes = append(probes, a, Addr{Hi: a.Hi | ^m.Hi, Lo: a.Lo | ^m.Lo})
		}
		if lambda > maxSerialLambda {
			if _, err := d.Serialize(); err == nil {
				t.Fatalf("λ=%d v1 serialized past the barrier bound", lambda)
			}
			if _, err := d.SerializeV2(); err == nil {
				t.Fatalf("λ=%d v2 serialized past the barrier bound", lambda)
			}
			return
		}
		// A deterministic spread of the space joins the targeted
		// probes; all of them are moved into the window.
		for i := uint64(0); i < 64; i++ {
			probes = append(probes, Addr{
				Hi: i * 0x0400000000000001,
				Lo: i * 0x9E3779B97F4A7C15,
			})
		}
		for i := range probes {
			probes[i] = inShard(probes[i], shard, k)
		}
		b1, err := d.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		b2, err := d.SerializeV2()
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]uint32, len(probes))
		check := func(phase string) {
			b2.LookupBatchInto(dst, probes)
			for i, a := range probes {
				want := oracle.Lookup(a)
				if got := b1.Lookup(a); got != want {
					t.Fatalf("λ=%d k=%d %s v1 divergence at %s: %d != %d", lambda, k, phase, a, got, want)
				}
				if got := b2.Lookup(a); got != want {
					t.Fatalf("λ=%d k=%d %s v2 scalar divergence at %s: %d != %d", lambda, k, phase, a, got, want)
				}
				if dst[i] != want {
					t.Fatalf("λ=%d k=%d %s v2 lanes divergence at %s: %d != %d", lambda, k, phase, a, dst[i], want)
				}
			}
		}
		check("fresh")
		if len(sets) == 0 {
			return
		}
		// Phase 2: flip every surviving label and republish into the
		// same buffers — the dirty-subtree path under fuzz.
		for _, r := range sets {
			label := r.label%4 + 1
			if err := d.Set(r.addr, r.plen, label); err != nil {
				t.Fatal(err)
			}
			oracle.Insert(r.addr, r.plen, label)
		}
		if b1, err = d.SerializeInto(b1); err != nil {
			t.Fatal(err)
		}
		if b2, err = d.SerializeV2Into(b2); err != nil {
			t.Fatal(err)
		}
		check("dirty-republish")
	})
}
