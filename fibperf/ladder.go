package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/ip6"
	"fibcomp/internal/lookupd"
	"fibcomp/internal/pdag"
	"fibcomp/internal/ribd"
	"fibcomp/internal/shardfib"
	"fibcomp/internal/trie"
	"fibcomp/internal/vrftab"
)

// fibserve's defaults, which the ladder folds with as the server does.
const (
	lambda4 = 11
	lambda6 = 16
	shards  = 16
)

// Share of the measured seconds each timed rung gets.
const (
	batchShare   = 0.08 // each of the four batch-lookup rungs
	lookupdShare = 0.4
	ribdShare    = 0.28
	applyBursts  = 100 // feed bursts the shardfib apply rung times
	echoShare    = 0.04
)

// span is one traced interval at a layer boundary.
type span struct {
	Name    string  `json:"name"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a root span
	Req     int     `json:"req"`    // request id (tenant, burst or barrier) or -1
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"` // duration minus the time its children cover
	Mallocs uint64  `json:"mallocs"` // heap objects allocated inside, on counted spans
	Bytes   uint64  `json:"bytes"`
	counted bool
	m0, b0  uint64
}

// tracer keeps spans in memory; write stores them once at the end.
type tracer struct {
	base  time.Time
	spans []span
}

// begin opens a span. counted spans also record the heap allocations
// inside them; reading the counters stops the world, so per-request
// child spans are timed only.
func (tr *tracer) begin(name string, parent, req int, counted bool) int {
	s := span{Name: name, ID: len(tr.spans), Parent: parent, Req: req, counted: counted}
	if counted {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.m0, s.b0 = ms.Mallocs, ms.TotalAlloc
	}
	s.StartUS = float64(time.Since(tr.base)) / 1e3
	tr.spans = append(tr.spans, s)
	return s.ID
}

// end closes span id and returns its duration.
func (tr *tracer) end(id int) time.Duration {
	s := &tr.spans[id]
	s.EndUS = float64(time.Since(tr.base)) / 1e3
	if s.counted {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.Mallocs, s.Bytes = ms.Mallocs-s.m0, ms.TotalAlloc-s.b0
	}
	return time.Duration((s.EndUS - s.StartUS) * 1e3)
}

// write derives self times and stores the spans as JSON.
func (tr *tracer) write(path string) error {
	for i := range tr.spans {
		tr.spans[i].SelfUS = tr.spans[i].EndUS - tr.spans[i].StartUS
	}
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			tr.spans[s.Parent].SelfUS -= s.EndUS - s.StartUS
		}
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ladder is the traced run: it calls each serving-path layer in
// process on the workload's inputs, one rung per layer, times each
// call in a span, and reports the per-layer metrics. Every lookup a
// rung makes on its first pass, every datagram and the post-feed
// state are checked against the oracle.
func ladder(in *inputs, dir string, seed int64, dur time.Duration, info map[string]any, prog progress) (result, error) {
	res := result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	tr := &tracer{base: time.Now()}
	f, err := in.write(dir)
	if err != nil {
		return res, err
	}
	batchDur := time.Duration(float64(dur) * batchShare)
	check := func(got, want []uint32) {
		res.Attempted += int64(len(want))
		for i := range want {
			if got[i] != want[i] {
				res.Failed++
			}
		}
	}

	// fib: parse every IPv4 table file fibserve parses.
	root := tr.begin("fib", -1, -1, true)
	var v4 *fib.Table
	tenants := make([]*fib.Table, len(f.tenants))
	for i, p := range append([]string{f.v4}, f.tenants...) {
		t, err := readTable(p)
		if err != nil {
			return res, err
		}
		if i == 0 {
			v4 = t
		} else {
			tenants[i-1] = t
		}
	}
	put("fib.read_s", tr.end(root).Seconds(), "s")
	if v4.N() != in.v4.N() {
		return res, fmt.Errorf("fib.Read: %d prefixes, wrote %d", v4.N(), in.v4.N())
	}

	// pdag: the paper's folded prefix DAG and its blob walker.
	root = tr.begin("pdag", -1, -1, true)
	sp := tr.begin("pdag.Build", root, -1, false)
	d, err := pdag.Build(v4, lambda4)
	if err != nil {
		return res, err
	}
	put("pdag.build_s", tr.end(sp).Seconds(), "s")
	sp = tr.begin("pdag.Serialize", root, -1, false)
	blob, err := d.Serialize()
	if err != nil {
		return res, err
	}
	put("pdag.serialize_ms", float64(tr.end(sp))/1e6, "ms")
	put("pdag.blob_kb", float64(blob.SizeBytes())/1024, "KB")
	sp = tr.begin("pdag.LookupBatchInto", root, -1, false)
	put("pdag.lookup_mlps", batchRate(in.keys4, in.want4, in.w.batch, batchDur, blob.LookupBatchInto, check), "Mlps")
	tr.end(sp)
	tr.end(root)
	sp = tr.begin("trie.LeafStats", -1, -1, false)
	entropy := trie.FromTable(v4).LeafPush().LeafStats().Entropy
	tr.end(sp)
	put("pdag.entropy_ratio", float64(8*blob.SizeBytes())/entropy, "ratio")
	prog.log("fib, pdag done")

	// ip6: the IPv6 DAG and blob (an empty table on v4-only workloads,
	// as fibserve folds for every v4-only VRF tenant).
	t6 := ip6.New()
	if f.v6 != "" {
		if t6, err = readTable6(f.v6); err != nil {
			return res, err
		}
	}
	root = tr.begin("ip6", -1, -1, true)
	sp = tr.begin("ip6.Build", root, -1, false)
	d6, err := ip6.Build(t6, lambda6)
	if err != nil {
		return res, err
	}
	put("ip6.build_s", tr.end(sp).Seconds(), "s")
	sp = tr.begin("ip6.Serialize", root, -1, false)
	blob6, err := d6.Serialize()
	if err != nil {
		return res, err
	}
	tr.end(sp)
	put("ip6.blob_kb", float64(blob6.SizeBytes())/1024, "KB")
	sp = tr.begin("ip6.LookupBatchInto", root, -1, false)
	put("ip6.lookup_mlps", batchRate6(in.keys6, in.want6, 256, batchDur, blob6.LookupBatchInto, check), "Mlps")
	tr.end(sp)
	tr.end(root)

	// shardfib: the sharded engines fibserve serves, and their merged
	// view.
	root = tr.begin("shardfib", -1, -1, true)
	sp = tr.begin("shardfib.BuildFormat", root, -1, false)
	eng, err := shardfib.BuildFormat(v4, lambda4, shards, shardfib.FormatV1)
	if err != nil {
		return res, err
	}
	build := tr.end(sp)
	var eng6 *shardfib.FIB6
	if f.v6 != "" {
		sp = tr.begin("shardfib.Build6Format", root, -1, false)
		if eng6, err = shardfib.Build6Format(t6, lambda6, shards, shardfib.FormatV1); err != nil {
			return res, err
		}
		build += tr.end(sp)
	}
	put("shardfib.build_s", build.Seconds(), "s")
	sp = tr.begin("shardfib.LookupBatchInto", root, -1, false)
	put("shardfib.lookup_mlps", batchRate(in.keys4, in.want4, in.w.batch, batchDur, eng.LookupBatchInto, check), "Mlps")
	tr.end(sp)
	tr.end(root)

	// vrftab: the multi-tenant registry over shared arenas.
	root = tr.begin("vrftab", -1, -1, true)
	reg := vrftab.New(lambda4, lambda6, shards)
	sp = tr.begin("vrftab.Add", root, -1, false)
	if len(tenants) == 0 {
		var t6v *ip6.Table
		if f.v6 != "" {
			t6v = t6
		}
		if err := addTenant(tr, sp, reg, 1, v4, t6v); err != nil {
			return res, err
		}
	}
	for i, t := range tenants {
		if err := addTenant(tr, sp, reg, in.tenants[i].id, t, nil); err != nil {
			return res, err
		}
	}
	put("vrftab.add_ms", float64(tr.end(sp))/1e6, "ms")
	put("vrftab.shared_kb", float64(reg.SharedBytes())/1024, "KB")
	put("vrftab.unique_kb", float64(reg.UniqueBytes())/1024, "KB")
	sp = tr.begin("vrftab.Resolve+LookupBatchInto", root, -1, false)
	put("vrftab.lookup_mlps", vrfRate(in, reg, batchDur, check), "Mlps")
	tr.end(sp)
	tr.end(root)
	prog.log("ip6, shardfib, vrftab done")

	// The generator's own allocations, against an in-process echo.
	sp = tr.begin("gen.selfCheck", -1, -1, false)
	genAllocs, err := selfCheck(in.stream, in.w.window, time.Duration(float64(dur)*echoShare))
	if err != nil {
		return res, err
	}
	tr.end(sp)
	put("gen.allocs_per_req", genAllocs, "count")

	// lookupd: the UDP server in process over the engines above,
	// driven by the same generator as the end-to-end run.
	root = tr.begin("lookupd", -1, -1, true)
	sp = tr.begin("lookupd.ListenOptions", root, -1, false)
	var vrfs lookupd.VRFResolver
	if len(tenants) > 0 {
		vrfs = reg
	}
	var l6 lookupd.Lookuper6
	if eng6 != nil {
		l6 = eng6
	}
	srv, err := lookupd.ListenOptions("127.0.0.1:0", eng, l6, lookupd.Options{Workers: 1, ReusePort: true, VRFs: vrfs})
	if err != nil {
		return res, err
	}
	tr.end(sp)
	sp = tr.begin("lookupd.serve", root, -1, true)
	st, err := driveServer(srv, in, time.Duration(float64(dur)*lookupdShare))
	srv.Shutdown()
	if err != nil {
		return res, err
	}
	tr.end(sp)
	tr.end(root)
	put("lookupd.rtt_p50_us", percentile(st.l.rtt, 0.5), "us")
	put("lookupd.rtt_p99_us", percentile(st.l.rtt, 0.99), "us")
	put("lookupd.mlps", st.mlps, "Mlps")
	put("lookupd.allocs_per_req", st.allocsPerReq, "count")
	res.Attempted += st.l.datagrams
	res.Failed += st.l.failed
	info["lookupd_requests"] = st.l.datagrams
	info["lookupd_rtt_samples"] = len(st.l.rtt)
	prog.log("lookupd done")

	// shardfib republish: the feed's bursts through ApplyBatch, one
	// span per burst.
	root = tr.begin("shardfib.apply", -1, -1, true)
	nb := min(applyBursts, len(in.feed)/burstUpdates/2)
	ops := make([]shardfib.Op, burstUpdates)
	applyUS := make([]float64, 0, nb)
	m0 := mallocs()
	for b := 0; b < nb; b++ {
		for i, u := range in.feed[b*burstUpdates : (b+1)*burstUpdates] {
			ops[i] = opOf(u)
		}
		sp = tr.begin("shardfib.ApplyBatch", root, b, false)
		if _, err := eng.ApplyBatch(ops); err != nil {
			return res, err
		}
		applyUS = append(applyUS, float64(tr.end(sp))/1e3)
	}
	applyAllocs := float64(mallocs()-m0) / float64(nb)
	tr.end(root)
	put("shardfib.apply_us", median(applyUS), "us")
	put("shardfib.apply_allocs", applyAllocs, "count")

	// ribd: the update plane over the same engine, fed open loop at
	// the churn workload's rate with a sync barrier every 50 ms.
	root = tr.begin("ribd", -1, -1, true)
	rb, err := feedPlane(tr, root, eng, in.feed[nb*burstUpdates:], time.Duration(float64(dur)*ribdShare))
	if err != nil {
		return res, err
	}
	tr.end(root)
	put("ribd.sync_ms_p50", median(rb.syncMS), "ms")
	put("ribd.sync_ms_p90", quantile(rb.syncMS, 0.9), "ms")
	put("ribd.coalesce_ratio", float64(rb.stats.Coalesced)/float64(max(rb.stats.Received, 1)), "ratio")
	put("ribd.pending_max", float64(rb.pendingMax), "count")
	res.Attempted += int64(len(rb.syncMS))
	res.Failed += int64(rb.stats.Rejected + rb.stats.ApplyErrors)

	// The engine after both feeds must match their offline replay.
	sw := sweepStream(v4, in.feed[:(nb+rb.bursts)*burstUpdates], seed, 0)
	keys, want := decode4(sw.req), decode4(sw.resp)
	got := make([]uint32, len(keys))
	eng.LookupBatchInto(got, keys)
	check(got, want)
	info["ribd_updates"] = rb.stats.Received
	info["ribd_bursts"] = rb.bursts
	info["feed_late_ms_max"] = rb.lateMax
	prog.log("shardfib apply, ribd done")

	if err := tr.write(filepath.Join(dir, "trace-seed"+strconv.FormatInt(seed, 10)+".json")); err != nil {
		return res, err
	}
	info["spans"] = len(tr.spans)
	res.Correct = res.Failed == 0 && genAllocs < 0.01
	return res, nil
}

// decode4 reads big-endian 32-bit words: the addresses of a legacy
// request block, or the labels of a legacy reply block.
func decode4(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.BigEndian.Uint32(b[4*i:])
	}
	return out
}

func readTable(path string) (*fib.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fib.Read(f)
}

func readTable6(path string) (*ip6.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ip6.Read(f)
}

func addTenant(tr *tracer, parent int, reg *vrftab.Registry, id uint16, t4 *fib.Table, t6 *ip6.Table) error {
	sp := tr.begin("vrftab.Add", parent, int(id), false)
	_, err := reg.Add(id, t4, t6)
	tr.end(sp)
	return err
}

func opOf(u gen.Update) shardfib.Op {
	op := shardfib.Op{Addr: u.Addr, Len: u.Len, Label: u.NextHop}
	if u.Withdraw {
		op.Label = fib.NoLabel
	}
	return op
}

// batchRate times lookup over keys in batches of batch for about dur,
// cycling through the keys, and returns million addresses per second.
// The first pass over the keys is checked against want.
func batchRate(keys, want []uint32, batch int, dur time.Duration, lookup func(dst, addrs []uint32), check func(got, want []uint32)) float64 {
	dst := make([]uint32, len(keys))
	lookup2 := func(lo, hi int) { lookup(dst[lo:hi], keys[lo:hi]) }
	return rate(len(keys), batch, dur, lookup2, func() { check(dst, want) })
}

func batchRate6(keys []ip6.Addr, want []uint32, batch int, dur time.Duration, lookup func(dst []uint32, addrs []ip6.Addr), check func(got, want []uint32)) float64 {
	dst := make([]uint32, len(keys))
	lookup2 := func(lo, hi int) { lookup(dst[lo:hi], keys[lo:hi]) }
	return rate(len(keys), batch, dur, lookup2, func() { check(dst, want) })
}

// rate runs lookup over [0,n) in batches until dur has passed, calling
// firstPass once the first full pass is done, and returns million
// addresses per second.
func rate(n, batch int, dur time.Duration, lookup func(lo, hi int), firstPass func()) float64 {
	start := time.Now()
	done := 0
	for pass := 0; ; pass++ {
		for lo := 0; lo+batch <= n; lo += batch {
			lookup(lo, lo+batch)
		}
		done += n / batch * batch
		if pass == 0 {
			firstPass()
		}
		if time.Since(start) >= dur {
			break
		}
	}
	return float64(done) / time.Since(start).Seconds() / 1e6
}

// vrfRate times the VRF dispatch path lookupd runs per datagram —
// Resolve the tenant, pin its merged view, batch-lookup — over the
// tenant-scoped keys.
func vrfRate(in *inputs, reg *vrftab.Registry, dur time.Duration, check func(got, want []uint32)) float64 {
	keys, batch := in.vrfKeys, in.w.batch
	dst := make([]uint32, len(keys))
	lookup := func(lo, hi int) {
		f4, _, ok := reg.Resolve(in.vrfIDs[(lo/batch)%len(in.vrfIDs)])
		if !ok {
			return
		}
		v := f4.PinView()
		v.LookupBatchInto(dst[lo:hi], keys[lo:hi])
		v.Release()
	}
	return rate(len(keys), batch, dur, lookup, func() { check(dst, in.vrfWant) })
}

// serveStats is what the in-process lookupd rung observed.
type serveStats struct {
	l            *loop
	mlps         float64
	allocsPerReq float64
}

// driveServer runs the generator against an in-process lookupd server
// for dur after a short warm-up. The generator allocates nothing, so
// the process's allocations per request are the server's.
func driveServer(srv *lookupd.Server, in *inputs, dur time.Duration) (serveStats, error) {
	conn, err := net.DialUDP("udp", nil, srv.Addr().(*net.UDPAddr))
	if err != nil {
		return serveStats{}, err
	}
	defer conn.Close()
	l, err := newLoop(conn, in.stream, in.w.window, maxRTTs)
	if err != nil {
		return serveStats{}, err
	}
	if _, err := l.run(dur/8, 0, false); err != nil {
		return serveStats{}, err
	}
	m0, n0, a0 := mallocs(), l.datagrams, l.addrs
	el, err := l.run(dur, 0, true)
	if err != nil {
		return serveStats{}, err
	}
	reqs := l.datagrams - n0
	return serveStats{
		l:            l,
		mlps:         float64(l.addrs-a0) / el.Seconds() / 1e6,
		allocsPerReq: float64(mallocs()-m0) / float64(max(reqs, 1)),
	}, nil
}

// planeRun is what the in-process ribd rung observed.
type planeRun struct {
	bursts     int
	syncMS     []float64
	stats      ribd.Stats
	pendingMax int
	lateMax    float64
}

// feedPlane feeds a ribd plane as one session would: burst i of the
// feed is enqueued at i×churnFeed.every, and after every syncEvery-th burst
// the feeder blocks in Sync, the barrier the session's "sync" verb
// runs. Each barrier is a span; its time counts from when it was due.
func feedPlane(tr *tracer, parent int, eng *shardfib.FIB, feed []gen.Update, dur time.Duration) (planeRun, error) {
	p := ribd.New(eng, ribd.Options{})
	var (
		run  planeRun
		wg   sync.WaitGroup
		stop = make(chan struct{})
		peak = make(chan int, 1)
	)
	wg.Add(1)
	go func() { // samples the coalescing maps' depth
		defer wg.Done()
		mx := 0
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				peak <- mx
				return
			case <-t.C:
				mx = max(mx, p.Pending())
			}
		}
	}()
	nb := min(len(feed)/burstUpdates, int(dur/churnFeed.every))
	base := time.Now()
	for i := 0; i < nb; i++ {
		at := time.Duration(i) * churnFeed.every
		time.Sleep(time.Until(base.Add(at)))
		run.lateMax = max(run.lateMax, float64(time.Since(base)-at)/1e6)
		p.EnqueueBatch(slices.Clone(feed[i*burstUpdates : (i+1)*burstUpdates]))
		if (i+1)%churnFeed.syncEvery == 0 {
			sp := tr.begin("ribd.Sync", parent, (i+1)/churnFeed.syncEvery-1, false)
			p.Sync()
			tr.end(sp)
			run.syncMS = append(run.syncMS, float64(time.Since(base)-at)/1e6)
		}
	}
	p.Sync()
	close(stop)
	wg.Wait()
	run.pendingMax = <-peak
	p.Close()
	run.bursts = nb
	run.stats = p.Stats()
	if len(run.syncMS) == 0 {
		return run, fmt.Errorf("ribd rung: no sync barrier in %v", dur)
	}
	return run, nil
}

// quantile is the q-quantile of v by nearest rank, 0 when v is empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[int(q*float64(len(s)-1))]
}
