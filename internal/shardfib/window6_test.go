package shardfib

import (
	"fmt"
	"math/rand"
	"testing"

	"fibcomp/internal/ip6"
)

// TestWindow6Differential pins the window-only shard blobs end to end
// through the sharded engine, for shard bits k ∈ {0, 1, 4, 8},
// barriers λ ∈ {k, 8, 16, 20} and both formats: every shard publishes
// exactly its 2^(λ−k)-slot root window; the merged View6 batch path
// (or the per-shard path at λ > 16) and scalar Lookup agree with the
// trie oracle before and after rounds of random ApplyBatch churn that
// include short prefixes replicated across shards; and each shard's
// dirty-republished root window equals a full serialize of its DAG bit
// for bit.
func TestWindow6Differential(t *testing.T) {
	base := testTable6(t, 1500, 141)
	for _, format := range []Format{FormatV1, FormatV2} {
		for _, k := range []int{0, 1, 4, 8} {
			seen := map[int]bool{}
			for _, lambda := range []int{k, 8, 16, 20} {
				if seen[lambda] {
					continue
				}
				seen[lambda] = true
				t.Run(fmt.Sprintf("%v/k=%d/λ=%d", format, k, lambda), func(t *testing.T) {
					window6Case(t, base, format, k, lambda)
				})
			}
		}
	}
}

func window6Case(t *testing.T, base *ip6.Table, format Format, k, lambda int) {
	rng := rand.New(rand.NewSource(int64(142 + 31*k + lambda)))
	tab := &ip6.Table{Entries: append([]ip6.Entry(nil), base.Entries...)}
	tab.Entries = append(tab.Entries, ip6.Entry{Len: 0, NextHop: 7})
	if k > 0 {
		// One bit shorter than k under 2000::/3: replicated into the
		// two shards it covers.
		short := ip6.Canonical(ip6.Addr{Hi: 0x2000000000000000}, k-1)
		tab.Entries = append(tab.Entries, ip6.Entry{Addr: short, Len: k - 1, NextHop: 9})
	}
	oracle := ip6.FromTable(tab)
	f, err := Build6Format(tab, lambda, 1<<uint(k), format)
	if err != nil {
		t.Fatal(err)
	}
	probes := probes6(tab, rng, 2048)
	dst := make([]uint32, len(probes))
	check := func(phase string) {
		t.Helper()
		per := 1 << uint(lambda-k)
		for s := range f.shards {
			snap := f.shards[s].cur.Load()
			if got := snap.rootBase(); got != s*per || len(snap.rootArray()) != per {
				t.Fatalf("%s shard %d: window [%d,+%d), want [%d,+%d)", phase, s, got, len(snap.rootArray()), s*per, per)
			}
		}
		v := f.PinView()
		v.LookupBatchInto(dst, probes)
		v.Release()
		for i, a := range probes {
			want := oracle.Lookup(a)
			if dst[i] != want {
				t.Fatalf("%s view batch %s: %d, want %d", phase, a, dst[i], want)
			}
			if got := f.Lookup(a); got != want {
				t.Fatalf("%s scalar %s: %d, want %d", phase, a, got, want)
			}
		}
	}
	check("built")
	ops := make([]Op6, 0, 24)
	for round := 0; round < 8; round++ {
		ops = ops[:0]
		for i := 0; i < 24; i++ {
			plen := 8 + rng.Intn(57)
			if i%6 == 5 {
				plen = rng.Intn(k + 2) // short: often replicated
			}
			a := ip6.Canonical(ip6.Addr{Hi: 0x2000000000000000 | rng.Uint64()>>3, Lo: rng.Uint64()}, plen)
			label := uint32(0)
			if rng.Intn(3) != 0 {
				label = uint32(1 + rng.Intn(200))
			}
			ops = append(ops, Op6{Addr: a, Len: plen, Label: label})
		}
		if _, err := f.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.Label == ip6.NoLabel {
				oracle.Delete(op.Addr, op.Len)
			} else {
				oracle.Insert(op.Addr, op.Len, op.Label)
			}
		}
		check(fmt.Sprintf("round %d", round))
	}
	for s := range f.shards {
		sh := &f.shards[s]
		sh.mu.Lock()
		got, want := sh.cur.Load().rootArray(), fullRoot6(t, sh.dag, format)
		sh.mu.Unlock()
		if len(got) != len(want) {
			t.Fatalf("shard %d: republished root %d slots, full %d", s, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shard %d slot %d: republished %#x, full serialize %#x", s, i, got[i], want[i])
			}
		}
	}
}

// fullRoot6 serializes d into a fresh buffer of the given format and
// returns its root window.
func fullRoot6(t *testing.T, d *ip6.DAG, format Format) []uint32 {
	t.Helper()
	if format == FormatV2 {
		b, err := d.SerializeV2()
		if err != nil {
			t.Fatal(err)
		}
		return b.Root
	}
	b, err := d.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	return b.Root
}

// TestEmptyFIB6SizePin pins the empty-engine cost on byte counts: 16
// shards at λ=16 each publish a 2^12-slot root window (16 KB) plus one
// empty region per covering group (16 × 8 slack slots), 272 KB in v1
// where full per-shard roots cost 4,352 KB.
func TestEmptyFIB6SizePin(t *testing.T) {
	for _, format := range []Format{FormatV1, FormatV2} {
		f, err := Build6Format(&ip6.Table{}, 16, 16, format)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.SizeBytes(); got > 288<<10 {
			t.Fatalf("%v: empty 16-shard λ=16 FIB6 is %d B, want ≤ %d", format, got, 288<<10)
		}
	}
}
