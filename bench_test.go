// Benchmarks regenerating the measured quantity behind every table
// and figure of the paper's evaluation (§5). Instances are scaled-down
// versions of the paper's FIBs so the suite runs in minutes; run
// cmd/fibbench -scale 1 for paper-scale tables. Custom metrics:
//
//	bytes        structure size
//	cycles/op    CPU cycles at the paper's 2.5 GHz clock
//	fpga-cycles  simulated FPGA cycles per lookup (Table 2, HW column)
package fibcomp_test

import (
	"math/rand"
	"sync"
	"testing"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/hwsim"
	"fibcomp/internal/ip6"
	"fibcomp/internal/lctrie"
	"fibcomp/internal/mdag"
	"fibcomp/internal/ortc"
	"fibcomp/internal/patricia"
	"fibcomp/internal/pdag"
	"fibcomp/internal/shardfib"
	"fibcomp/internal/trie"
	"fibcomp/internal/xbw"
)

// benchN is the benchmark FIB size: 1/8 of taz.
const benchN = 51000

var (
	benchOnce  sync.Once
	benchTable *fib.Table
	benchKeys  []uint32
	benchTrace []uint32
)

func benchFIB(b *testing.B) (*fib.Table, []uint32, []uint32) {
	b.Helper()
	benchOnce.Do(func() {
		p, err := gen.ProfileByName("taz")
		if err != nil {
			panic(err)
		}
		p.N = benchN
		rng := rand.New(rand.NewSource(1))
		benchTable, err = p.Generate(rng)
		if err != nil {
			panic(err)
		}
		benchKeys = gen.UniformAddrs(rng, 1<<14)
		benchTrace = gen.ZipfTrace(rng, 1<<14, 1<<12, 1.2)
	})
	return benchTable, benchKeys, benchTrace
}

// ---- Table 1: compression (build cost and compressed sizes) ----

func BenchmarkTable1_XBWBuild(b *testing.B) {
	t, _, _ := benchFIB(b)
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := xbw.New(t)
		if err != nil {
			b.Fatal(err)
		}
		size = x.SizeBytes()
	}
	b.ReportMetric(float64(size), "bytes")
	b.ReportMetric(float64(size)*8/float64(t.N()), "bits/prefix")
}

func BenchmarkTable1_PDAGBuild(b *testing.B) {
	t, _, _ := benchFIB(b)
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := pdag.Build(t, 11)
		if err != nil {
			b.Fatal(err)
		}
		size = d.ModelBytes()
	}
	b.ReportMetric(float64(size), "bytes")
	b.ReportMetric(float64(size)*8/float64(t.N()), "bits/prefix")
}

func BenchmarkTable1_Entropy(b *testing.B) {
	// The measurement pipeline itself: leaf-push + metrics.
	t, _, _ := benchFIB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := trie.FromTable(t).LeafPush().LeafStats()
		if s.Leaves == 0 {
			b.Fatal("no leaves")
		}
	}
}

// ---- Table 2: lookup engines ----

func BenchmarkTable2_LookupXBW(b *testing.B) {
	t, keys, _ := benchFIB(b)
	x, err := xbw.New(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += x.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
	b.ReportMetric(float64(x.SizeBytes()), "bytes")
}

func BenchmarkTable2_LookupPDAGPointer(b *testing.B) {
	t, keys, _ := benchFIB(b)
	d, err := pdag.Build(t, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += d.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
}

func BenchmarkTable2_LookupPDAGSerialized(b *testing.B) {
	t, keys, _ := benchFIB(b)
	d, err := pdag.Build(t, 11)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := d.Serialize()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += blob.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
	b.ReportMetric(float64(blob.SizeBytes()), "bytes")
}

func BenchmarkTable2_LookupPDAGTraceKeys(b *testing.B) {
	t, _, traceKeys := benchFIB(b)
	d, err := pdag.Build(t, 11)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := d.Serialize()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += blob.Lookup(traceKeys[i&(len(traceKeys)-1)])
	}
	_ = sink
}

func BenchmarkTable2_LookupFibTrie(b *testing.B) {
	t, keys, _ := benchFIB(b)
	lc, err := lctrie.Build(t, 0.5, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += lc.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
	b.ReportMetric(float64(lc.ModelBytes()), "bytes")
}

func BenchmarkTable2_FPGA(b *testing.B) {
	t, keys, _ := benchFIB(b)
	d, err := pdag.Build(t, 11)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := d.Serialize()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := hwsim.New(blob, 64<<20, 50e6)
	if err != nil {
		b.Fatal(err)
	}
	var avg float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		avg = eng.Run(keys).AvgCycles
	}
	b.ReportMetric(avg, "fpga-cycles/lookup")
}

// ---- Fig 5: update cost vs leaf-push barrier ----

func benchUpdates(b *testing.B, lambda int, bgp bool) {
	t, _, _ := benchFIB(b)
	rng := rand.New(rand.NewSource(2))
	var us []gen.Update
	if bgp {
		us = gen.BGPUpdates(rng, t, 4096)
	} else {
		us = gen.RandomUpdates(rng, t, 4096)
	}
	d, err := pdag.Build(t, lambda)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := us[i&4095]
		if u.Withdraw {
			d.Delete(u.Addr, u.Len)
		} else if err := d.Set(u.Addr, u.Len, u.NextHop); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(d.ModelBytes()), "bytes")
}

func BenchmarkFig5_UpdateRandom_Lambda0(b *testing.B)  { benchUpdates(b, 0, false) }
func BenchmarkFig5_UpdateRandom_Lambda11(b *testing.B) { benchUpdates(b, 11, false) }
func BenchmarkFig5_UpdateRandom_Lambda32(b *testing.B) { benchUpdates(b, 32, false) }
func BenchmarkFig5_UpdateBGP_Lambda0(b *testing.B)     { benchUpdates(b, 0, true) }
func BenchmarkFig5_UpdateBGP_Lambda11(b *testing.B)    { benchUpdates(b, 11, true) }
func BenchmarkFig5_UpdateBGP_Lambda32(b *testing.B)    { benchUpdates(b, 32, true) }

// ---- Fig 6: Bernoulli-relabeled FIB compression ----

func BenchmarkFig6_CompressBernoulli(b *testing.B) {
	t, _, _ := benchFIB(b)
	rng := rand.New(rand.NewSource(3))
	relabeled := gen.Relabel(rng, t, gen.Bernoulli(0.95))
	var nu float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := pdag.Build(relabeled, 11)
		if err != nil {
			b.Fatal(err)
		}
		s := trie.FromTable(relabeled).LeafPush().LeafStats()
		nu = float64(d.ModelBytes()) * 8 / s.Entropy
	}
	b.ReportMetric(nu, "nu")
}

// ---- Fig 7: string-model folding ----

func BenchmarkFig7_StringFold(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	s := gen.BernoulliString(rng, 1<<15, 0.95)
	var bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := pdag.BuildString(s, 10)
		if err != nil {
			b.Fatal(err)
		}
		bytes = d.ModelBytes()
	}
	b.ReportMetric(float64(bytes), "bytes")
	b.ReportMetric(float64(bytes)*8/float64(len(s)), "bits/sym")
}

// ---- supporting: ORTC aggregation appears in §6 as the classic
// baseline; benchmark its cost on the same instance ----

func BenchmarkBaseline_ORTC(b *testing.B) {
	t, _, _ := benchFIB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := ortc.Compress(t)
		if out.N() == 0 {
			b.Fatal("empty aggregation")
		}
	}
}

// ---- Ablations: the §7 multibit extension and the S_I encoding ----

func benchMultibit(b *testing.B, stride int) {
	t, keys, _ := benchFIB(b)
	d, err := mdag.Build(t, stride)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += d.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
	b.ReportMetric(float64(d.ModelBytes()), "bytes")
}

func BenchmarkAblation_MultibitStride2(b *testing.B) { benchMultibit(b, 2) }
func BenchmarkAblation_MultibitStride4(b *testing.B) { benchMultibit(b, 4) }
func BenchmarkAblation_MultibitStride8(b *testing.B) { benchMultibit(b, 8) }

func BenchmarkAblation_XBWPlainSI(b *testing.B) {
	t, keys, _ := benchFIB(b)
	lp := trie.FromTable(t).LeafPush()
	x, err := xbw.FromTrieOptions(lp, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += x.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
	b.ReportMetric(float64(x.SizeBytes()), "bytes")
}

// ---- IPv6 extension (§7): folding and lookup over 128-bit keys ----

var (
	bench6Once sync.Once
	bench6Tab  *ip6.Table
	bench6Keys []ip6.Addr
)

func bench6(b *testing.B) (*ip6.Table, []ip6.Addr) {
	b.Helper()
	bench6Once.Do(func() {
		rng := rand.New(rand.NewSource(5))
		var err error
		bench6Tab, err = ip6.SplitFIB(rng, 50000, []float64{0.8, 0.12, 0.05, 0.03})
		if err != nil {
			panic(err)
		}
		bench6Keys = ip6.RandomAddrs(rng, 1<<14)
	})
	return bench6Tab, bench6Keys
}

func BenchmarkIPv6_PDAGBuild(b *testing.B) {
	t, _ := bench6(b)
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := ip6.Build(t, 16)
		if err != nil {
			b.Fatal(err)
		}
		size = d.ModelBytes()
	}
	b.ReportMetric(float64(size), "bytes")
}

func BenchmarkIPv6_PDAGLookup(b *testing.B) {
	t, keys := bench6(b)
	d, err := ip6.Build(t, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += d.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
}

func BenchmarkIPv6_XBWLookup(b *testing.B) {
	t, keys := bench6(b)
	x, err := ip6.NewXBW(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += x.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
	b.ReportMetric(float64(x.SizeBits())/8, "bytes")
}

// ---- Serving: v1/v2 serialized-format pairs ----
//
// Each Serving_* benchmark is one half of a pair that differs only in
// the serialized format (v1 blob or stride-compressed BlobV2): same
// table, keys and schedule. The pairs are the in-repo evidence for
// which format to keep. End-to-end serving numbers (UDP datagrams,
// VRFs, live churn) and the per-layer ladder come from fibperf:
// bash fibperf/run.sh, with --trace 1 for the ladder. Each lookup
// benchmark op is one 256-address batch.

const serveBatch = 256

// serveBatches slices the benchmark key set into batches.
func serveBatches(keys []uint32) [][]uint32 {
	batches := make([][]uint32, 0, len(keys)/serveBatch)
	for i := 0; i+serveBatch <= len(keys); i += serveBatch {
		batches = append(batches, keys[i:i+serveBatch])
	}
	return batches
}

func benchParallelBatchSharded16(b *testing.B, format shardfib.Format) {
	t, keys, _ := benchFIB(b)
	f, err := shardfib.BuildFormat(t, 11, 16, format)
	if err != nil {
		b.Fatal(err)
	}
	batches := serveBatches(keys)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]uint32, serveBatch)
		for i := 0; pb.Next(); i++ {
			f.LookupBatchInto(dst, batches[i%len(batches)])
		}
	})
	b.ReportMetric(float64(serveBatch)*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

func BenchmarkServing_ParallelBatchSharded16(b *testing.B) {
	benchParallelBatchSharded16(b, shardfib.FormatV1)
}

// The V2 variant serves stride-compressed snapshots through the same
// merged view — the bench smoke runs both formats side by side.
func BenchmarkServing_ParallelBatchSharded16V2(b *testing.B) {
	benchParallelBatchSharded16(b, shardfib.FormatV2)
}

// BenchmarkServing_ParallelBatchBlobLanes serves the flat serialized
// blob through the software-pipelined batch walker — the single-shard
// engine fibserve uses at -shards 1, and the upper bound for what the
// sharded engine's merged view can reach.
func BenchmarkServing_ParallelBatchBlobLanes(b *testing.B) {
	t, keys, _ := benchFIB(b)
	d, err := pdag.Build(t, 11)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := d.Serialize()
	if err != nil {
		b.Fatal(err)
	}
	batches := serveBatches(keys)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]uint32, serveBatch)
		for i := 0; pb.Next(); i++ {
			blob.LookupBatchInto(dst, batches[i%len(batches)])
		}
	})
	b.ReportMetric(float64(serveBatch)*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchmarkServing_ParallelBatchBlobV2Lanes is the stride-compressed
// counterpart of BlobLanes: same keys, same pipeline, but the folded
// region is walked four levels per touch. On uniform keys the two are
// close (most lookups resolve in the shared root array); the Deep
// benchmarks below expose the chain-length difference.
func BenchmarkServing_ParallelBatchBlobV2Lanes(b *testing.B) {
	t, keys, _ := benchFIB(b)
	d, err := pdag.Build(t, 11)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := d.SerializeV2()
	if err != nil {
		b.Fatal(err)
	}
	batches := serveBatches(keys)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]uint32, serveBatch)
		for i := 0; pb.Next(); i++ {
			blob.LookupBatchInto(dst, batches[i%len(batches)])
		}
	})
	b.ReportMetric(float64(serveBatch)*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// The Deep benchmarks run the adversarial long-prefix workload of
// gen.DeepFIB — every lookup walks the folded region to full depth —
// the regime the ⌈(W−λ)/4⌉ stride chain is built for. The v1/v2 pair
// shares table, keys and schedule; only the serialized format
// differs.
var (
	deepOnce  sync.Once
	deepTable *fib.Table
	deepKeys  []uint32
)

func deepFIB(b *testing.B) (*fib.Table, []uint32) {
	b.Helper()
	deepOnce.Do(func() {
		var err error
		deepTable, deepKeys, err = gen.DeepFIB(rand.New(rand.NewSource(9)), 40000, 1<<14)
		if err != nil {
			panic(err)
		}
	})
	return deepTable, deepKeys
}

// batchBlob is what the deep benchmarks need from either serialized
// format.
type batchBlob interface {
	LookupBatchInto(dst, addrs []uint32)
	SizeBytes() int
}

func benchDeepBlob(b *testing.B, v2 bool) {
	t, keys := deepFIB(b)
	d, err := pdag.Build(t, 11)
	if err != nil {
		b.Fatal(err)
	}
	var blob batchBlob
	if v2 {
		blob, err = d.SerializeV2()
	} else {
		blob, err = d.Serialize()
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(blob.SizeBytes()), "bytes")
	batches := serveBatches(keys)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]uint32, serveBatch)
		for i := 0; pb.Next(); i++ {
			blob.LookupBatchInto(dst, batches[i%len(batches)])
		}
	})
	b.ReportMetric(float64(serveBatch)*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

func BenchmarkServing_DeepBatchBlobLanes(b *testing.B)   { benchDeepBlob(b, false) }
func BenchmarkServing_DeepBatchBlobV2Lanes(b *testing.B) { benchDeepBlob(b, true) }

// BenchmarkServing_ShardedUpdate measures the write-side price of
// copy-on-write sharding per format: one Set = one shard republish
// (1/16 of the table) versus the flat DAG's in-place Theorem 3 patch
// of Fig 5. One
// warmup cycle applies every update before the clock starts, so the
// measurement is steady-state churn — the regime the zero-allocation
// republish contract covers — rather than first-touch table growth.
func BenchmarkServing_ShardedUpdate16(b *testing.B)   { benchShardedUpdate(b, shardfib.FormatV1) }
func BenchmarkServing_ShardedUpdate16V2(b *testing.B) { benchShardedUpdate(b, shardfib.FormatV2) }

func benchShardedUpdate(b *testing.B, format shardfib.Format) {
	t, _, _ := benchFIB(b)
	f, err := shardfib.BuildFormat(t, 11, 16, format)
	if err != nil {
		b.Fatal(err)
	}
	us := gen.RandomUpdates(rand.New(rand.NewSource(7)), t, 4096)
	apply := func(u gen.Update) {
		if u.Withdraw {
			f.Delete(u.Addr, u.Len)
		} else if err := f.Set(u.Addr, u.Len, u.NextHop); err != nil {
			b.Fatal(err)
		}
	}
	for _, u := range us {
		apply(u)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(us[i&4095])
	}
	b.StopTimer()
	b.ReportMetric(float64(f.ModelBytes()), "bytes")
}

// ---- IPv6 dual-stack serving: the ip6 blob's interleaved lanes flat
// and through the sharded v6 engine, plus the sharded steady-churn
// update cost, each as a v1/v2 format pair.

func serve6Batches(keys []ip6.Addr) [][]ip6.Addr {
	batches := make([][]ip6.Addr, 0, len(keys)/serveBatch)
	for i := 0; i+serveBatch <= len(keys); i += serveBatch {
		batches = append(batches, keys[i:i+serveBatch])
	}
	return batches
}

// bench6Lanes resolves the flat v6 walker for one format: the v1
// bit-at-a-time blob or the stride-4 BlobV2 chain.
func bench6Lanes(b *testing.B, v2 bool) func(dst []uint32, addrs []ip6.Addr) {
	b.Helper()
	t, _ := bench6(b)
	d, err := ip6.Build(t, 16)
	if err != nil {
		b.Fatal(err)
	}
	if v2 {
		blob, err := d.SerializeV2()
		if err != nil {
			b.Fatal(err)
		}
		return blob.LookupBatchInto
	}
	blob, err := d.Serialize()
	if err != nil {
		b.Fatal(err)
	}
	return blob.LookupBatchInto
}

func benchIP6Blob(b *testing.B, v2 bool) {
	lookup := bench6Lanes(b, v2)
	_, keys := bench6(b)
	batches := serve6Batches(keys)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]uint32, serveBatch)
		for i := 0; pb.Next(); i++ {
			lookup(dst, batches[i%len(batches)])
		}
	})
	b.ReportMetric(float64(serveBatch)*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

func BenchmarkServing_IP6ParallelBatchBlobLanes(b *testing.B)   { benchIP6Blob(b, false) }
func BenchmarkServing_IP6ParallelBatchBlobV2Lanes(b *testing.B) { benchIP6Blob(b, true) }

var (
	bench6DeepOnce sync.Once
	bench6DeepTab  *ip6.Table
	bench6DeepKeys []ip6.Addr
)

// benchIP6Deep walks the adversarial deep-chain instance: /60–/64
// routes probed exactly, so every lookup chains ~48 levels below the
// barrier — the dependent-load regime where the stride-4 format's 4×
// shorter chain is the whole story.
func benchIP6Deep(b *testing.B, v2 bool) {
	bench6DeepOnce.Do(func() {
		var err error
		bench6DeepTab, bench6DeepKeys, err = ip6.DeepFIB6(rand.New(rand.NewSource(9)), 40000, 1<<14)
		if err != nil {
			panic(err)
		}
	})
	d, err := ip6.Build(bench6DeepTab, 16)
	if err != nil {
		b.Fatal(err)
	}
	var lookup func(dst []uint32, addrs []ip6.Addr)
	if v2 {
		blob, err := d.SerializeV2()
		if err != nil {
			b.Fatal(err)
		}
		lookup = blob.LookupBatchInto
	} else {
		blob, err := d.Serialize()
		if err != nil {
			b.Fatal(err)
		}
		lookup = blob.LookupBatchInto
	}
	batches := serve6Batches(bench6DeepKeys)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]uint32, serveBatch)
		for i := 0; pb.Next(); i++ {
			lookup(dst, batches[i%len(batches)])
		}
	})
	b.ReportMetric(float64(serveBatch)*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

func BenchmarkServing_IP6DeepBatchBlobLanes(b *testing.B)   { benchIP6Deep(b, false) }
func BenchmarkServing_IP6DeepBatchBlobV2Lanes(b *testing.B) { benchIP6Deep(b, true) }

func benchIP6Sharded(b *testing.B, format shardfib.Format) {
	t, keys := bench6(b)
	f, err := shardfib.Build6Format(t, 16, 16, format)
	if err != nil {
		b.Fatal(err)
	}
	batches := serve6Batches(keys)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]uint32, serveBatch)
		for i := 0; pb.Next(); i++ {
			f.LookupBatchInto(dst, batches[i%len(batches)])
		}
	})
	b.ReportMetric(float64(serveBatch)*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

func BenchmarkServing_IP6ParallelBatchSharded16(b *testing.B) {
	benchIP6Sharded(b, shardfib.FormatV1)
}

func BenchmarkServing_IP6ParallelBatchSharded16V2(b *testing.B) {
	benchIP6Sharded(b, shardfib.FormatV2)
}

func BenchmarkServing_IP6ShardedUpdate16(b *testing.B) {
	benchIP6ShardedUpdate(b, shardfib.FormatV1)
}

func BenchmarkServing_IP6ShardedUpdate16V2(b *testing.B) {
	benchIP6ShardedUpdate(b, shardfib.FormatV2)
}

func benchIP6ShardedUpdate(b *testing.B, format shardfib.Format) {
	t, _ := bench6(b)
	f, err := shardfib.Build6Format(t, 16, 16, format)
	if err != nil {
		b.Fatal(err)
	}
	us := gen.BGPUpdates6(rand.New(rand.NewSource(7)), t, 4096)
	apply := func(u gen.Update) {
		if u.Withdraw {
			f.Delete(u.Addr6, u.Len)
		} else if err := f.Set(u.Addr6, u.Len, u.NextHop); err != nil {
			b.Fatal(err)
		}
	}
	// Two passes: both halves of every shard's double buffer reach the
	// feed's high-water blob size before the timer starts.
	for pass := 0; pass < 2; pass++ {
		for _, u := range us {
			apply(u)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(us[i&4095])
	}
	b.StopTimer()
	b.ReportMetric(float64(f.ModelBytes()), "bytes")
}

func BenchmarkBaseline_PatriciaLookup(b *testing.B) {
	t, keys, _ := benchFIB(b)
	p := patricia.Build(t)
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += p.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
	b.ReportMetric(float64(p.ModelBytes()), "bytes")
}
