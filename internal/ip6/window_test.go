package ip6

import (
	"fmt"
	"math/rand"
	"testing"
)

// inShard rewrites the top k bits of a to shard s, mapping any address
// into the window a k-bit shard DAG serves.
func inShard(a Addr, s, k int) Addr {
	if k == 0 {
		return a
	}
	sh := uint(64 - k)
	a.Hi = a.Hi&(1<<sh-1) | uint64(s)<<sh
	return a
}

// coversShard reports whether prefix a/plen intersects shard s of 2^k,
// the routing rule shardfib partitions tables by.
func coversShard(a Addr, plen, s, k int) bool {
	if k == 0 {
		return true
	}
	if plen >= k {
		return int(a.Hi>>uint(64-k)) == s
	}
	lo := int(a.Hi >> uint(64-k))
	return s >= lo && s < lo+1<<uint(k-plen)
}

// windowTrie is the control trie of shard s: every entry of tab that
// intersects the shard, including replicated short prefixes.
func windowTrie(tab *Table, s, k int) *Trie {
	tr := NewTrie()
	for _, e := range tab.Entries {
		if coversShard(e.Addr, e.Len, s, k) {
			tr.Insert(e.Addr, e.Len, e.NextHop)
		}
	}
	return tr
}

// liveEqualV1 reports whether two v1 blobs of d under its current
// geometry agree bit for bit: the whole root window, and every
// in-window group's live node words (slack past a group's used count
// is unreachable and may hold stale words after a dirty republish).
func liveEqualV1(d *DAG, a, b *Blob) error {
	if a.RootBase != b.RootBase || len(a.Root) != len(b.Root) || len(a.Nodes) != len(b.Nodes) {
		return fmt.Errorf("shape: base %d/%d root %d/%d nodes %d/%d",
			a.RootBase, b.RootBase, len(a.Root), len(b.Root), len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Root {
		if a.Root[i] != b.Root[i] {
			return fmt.Errorf("root slot %d: %#x != %#x", a.RootBase+i, a.Root[i], b.Root[i])
		}
	}
	for g := d.groupLo; g < d.groupHi; g++ {
		for w := 2 * d.geo1.base[g]; w < 2*(d.geo1.base[g]+d.geo1.used[g]); w++ {
			if a.Nodes[w] != b.Nodes[w] {
				return fmt.Errorf("group %d node word %d: %#x != %#x", g, w, a.Nodes[w], b.Nodes[w])
			}
		}
	}
	return nil
}

// liveEqualV2 is liveEqualV1 for the stride format.
func liveEqualV2(d *DAG, a, b *BlobV2) error {
	if a.RootBase != b.RootBase || len(a.Root) != len(b.Root) || len(a.Words) != len(b.Words) {
		return fmt.Errorf("shape: base %d/%d root %d/%d words %d/%d",
			a.RootBase, b.RootBase, len(a.Root), len(b.Root), len(a.Words), len(b.Words))
	}
	for i := range a.Root {
		if a.Root[i] != b.Root[i] {
			return fmt.Errorf("root slot %d: %#x != %#x", a.RootBase+i, a.Root[i], b.Root[i])
		}
	}
	for g := d.groupLo; g < d.groupHi; g++ {
		for w := d.geo2.base[g]; w < d.geo2.base[g]+d.geo2.used[g]; w++ {
			if a.Words[w] != b.Words[w] {
				return fmt.Errorf("group %d word %d: %#x != %#x", g, w, a.Words[w], b.Words[w])
			}
		}
	}
	return nil
}

// TestWindowDifferential pins window-only shard blobs against the trie
// reference across shard bits k ∈ {0, 1, 4, 8} and barriers
// λ ∈ {k/2, k, 8, 16, 20} (k/2 < k covers the one-slot window), both
// formats: per-shard scalar and batch lookups on in-window addresses,
// root-window geometry, and — after rounds of random churn republished
// through the dirty path into double buffers — bit-identity with a
// full serialize of the same DAG and lookup-identity with a freshly
// folded one. Every table carries a default route and a prefix shorter
// than k, replicated into the shards it covers.
func TestWindowDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	base, err := SplitFIB(rng, 1200, []float64{0.5, 0.3, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 4, 8} {
		seen := map[int]bool{}
		for _, lambda := range []int{k / 2, k, 8, 16, 20} {
			if seen[lambda] {
				continue
			}
			seen[lambda] = true
			// The two ends of the shard range, plus the shard a real
			// entry lands in.
			shards := []int{0}
			if k > 0 {
				e := base.Entries[rng.Intn(len(base.Entries))]
				shards = append(shards, 1<<uint(k)-1, int(e.Addr.Hi>>uint(64-k)))
			}
			for _, s := range shards {
				t.Run(fmt.Sprintf("k=%d/λ=%d/shard=%d", k, lambda, s), func(t *testing.T) {
					windowCase(t, rng, base, k, lambda, s)
				})
			}
		}
	}
}

func windowCase(t *testing.T, rng *rand.Rand, base *Table, k, lambda, s int) {
	tab := &Table{Entries: append([]Entry(nil), base.Entries...)}
	tab.Entries = append(tab.Entries, Entry{Len: 0, NextHop: 7})
	if k > 0 {
		// A prefix one bit shorter than k covering shard s and its
		// sibling: replicated into both windows.
		short := Canonical(inShard(Addr{}, s, k), k-1)
		tab.Entries = append(tab.Entries, Entry{Addr: short, Len: k - 1, NextHop: 9})
	}
	ref := FromTable(tab)
	d, err := FromTrieWindow(windowTrie(tab, s, k), lambda, s, k)
	if err != nil {
		t.Fatal(err)
	}
	wantBase, wantLen := s<<uint(lambda-k), 1<<uint(lambda-k)
	if k > lambda {
		wantBase, wantLen = s>>uint(k-lambda), 1
	}
	var probes []Addr
	for _, a := range probesFor(tab, rng, 512) {
		probes = append(probes, inShard(a, s, k))
	}
	dst := make([]uint32, len(probes))
	check := func(phase string, b1 *Blob, b2 *BlobV2) {
		t.Helper()
		if b1.RootBase != wantBase || len(b1.Root) != wantLen || b2.RootBase != wantBase || len(b2.Root) != wantLen {
			t.Fatalf("%s: window v1 [%d,+%d) v2 [%d,+%d), want [%d,+%d)",
				phase, b1.RootBase, len(b1.Root), b2.RootBase, len(b2.Root), wantBase, wantLen)
		}
		for _, batch := range []func([]uint32, []Addr){b1.LookupBatchInto, b2.LookupBatchInto} {
			batch(dst, probes)
			for i, a := range probes {
				want := ref.Lookup(a)
				if got := b1.Lookup(a); got != want {
					t.Fatalf("%s v1 scalar %s: %d, want %d", phase, a, got, want)
				}
				if got := b2.Lookup(a); got != want {
					t.Fatalf("%s v2 scalar %s: %d, want %d", phase, a, got, want)
				}
				if dst[i] != want {
					t.Fatalf("%s batch %s: %d, want %d", phase, a, dst[i], want)
				}
			}
		}
	}
	var bufs1 [2]*Blob
	var bufs2 [2]*BlobV2
	for round := 0; round < 12; round++ {
		if round > 0 {
			for i := 0; i < 10; i++ {
				plen := lambda + rng.Intn(40)
				if i%4 == 3 {
					plen = rng.Intn(k + 2) // short, often replicated
				}
				a := Canonical(inShard(Addr{Hi: 0x2000000000000000 | rng.Uint64()>>3, Lo: rng.Uint64()}, s, k), plen)
				if rng.Intn(3) == 0 {
					d.Delete(a, plen)
					ref.Delete(a, plen)
				} else {
					label := uint32(1 + rng.Intn(200))
					if err := d.Set(a, plen, label); err != nil {
						t.Fatal(err)
					}
					ref.Insert(a, plen, label)
				}
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
		check(fmt.Sprintf("round %d", round), b1, b2)

		// The dirty republish equals a full serialize of the same DAG
		// under the same geometry, bit for bit.
		f1, err := d.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		if err := liveEqualV1(d, b1, f1); err != nil {
			t.Fatalf("round %d v1 republish vs full: %v", round, err)
		}
		f2, err := d.SerializeV2()
		if err != nil {
			t.Fatal(err)
		}
		if err := liveEqualV2(d, b2, f2); err != nil {
			t.Fatalf("round %d v2 republish vs full: %v", round, err)
		}
	}
	// An independent fold of the churned control trie (fresh geometry)
	// answers identically.
	fresh, err := FromTrieWindow(d.Control(), lambda, s, k)
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
	check("fresh fold", f1, f2)
}

// TestWindowEmptyShardSize pins the window arithmetic on byte counts:
// an empty shard DAG at λ=16 with k=4 serializes 2^12 root words plus
// one empty group region (8 slack node slots of 2 words, or 8 stride
// words) for each of its 16 covering groups — 17 KB in v1 — while the
// unsharded DAG keeps the full 2^16 root and all 256 groups.
func TestWindowEmptyShardSize(t *testing.T) {
	for _, tc := range []struct {
		shard, k  int
		want1     int
		want2     int
		wantGroup int
	}{
		{0, 0, 4<<16 + 256*64, 4<<16 + 256*32, 256},
		{5, 4, 4<<12 + 16*64, 4<<12 + 16*32, 16},
		{255, 8, 4<<8 + 64, 4<<8 + 32, 1},
	} {
		d, err := FromTrieWindow(NewTrie(), 16, tc.shard, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.groupHi - d.groupLo; got != tc.wantGroup {
			t.Fatalf("k=%d: %d groups in window, want %d", tc.k, got, tc.wantGroup)
		}
		b1, err := d.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		b2, err := d.SerializeV2()
		if err != nil {
			t.Fatal(err)
		}
		if b1.SizeBytes() != tc.want1 || b2.SizeBytes() != tc.want2 {
			t.Fatalf("k=%d: sizes v1 %d v2 %d, want %d and %d", tc.k, b1.SizeBytes(), b2.SizeBytes(), tc.want1, tc.want2)
		}
	}
	if _, err := FromTrieWindow(NewTrie(), 16, 0, groupBitsMax+1); err == nil {
		t.Fatal("shard bits past the group depth accepted")
	}
	if _, err := FromTrieWindow(NewTrie(), 16, 4, 2); err == nil {
		t.Fatal("shard index past 2^k accepted")
	}
}
