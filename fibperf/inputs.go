package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/ip6"
	"fibcomp/internal/trie"
)

// workload is one table-and-traffic mix. README.md says why each
// exists and which layers it stresses.
type workload struct {
	name   string
	window int  // lookup datagrams kept in flight by the closed loop
	batch  int  // addresses per IPv4 datagram
	churn  bool // an open-loop route-update feed runs beside the lookups
}

var workloads = []workload{
	{name: "dfz-small", window: 16, batch: 1},
	{name: "deep-dual", window: 8, batch: 256},
	{name: "dfz-churn", window: 16, batch: 1, churn: true},
	{name: "vrf-64", window: 16, batch: 16},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Input sizes and the update feed's open-loop schedule.
const (
	streamKeys  = 1 << 20 // uniform lookup keys (dfz-*, vrf-64)
	deepRoutes  = 40000   // host routes per family (deep-dual)
	deepKeys    = 1 << 18 // exact-hit keys per family (deep-dual)
	spareKeys6  = 1 << 16 // IPv6 keys for the ladder on v4-only workloads
	vrfTenants  = 64
	vrfPrivate  = 32 // private /16–/24 routes per tenant
	vrfHitShare = 4  // every 4th VRF key lands in one of its tenant's private routes

	burstUpdates = 50   // updates per feed burst
	feedRate     = 5000 // updates per second of the churn feed
)

// schedule is the shape of an open-loop update feed: a burst of
// burstUpdates lines every every, and a sync barrier after every
// syncEvery-th burst.
type schedule struct {
	every     time.Duration
	syncEvery int
}

var (
	// churnFeed runs beside the lookups on dfz-churn: 5,000 updates/s
	// in 10 ms bursts, a barrier every 50 ms.
	churnFeed = schedule{every: 10 * time.Millisecond, syncEvery: 5}
	// quietFeed runs after the lookups on the other workloads: one
	// burst and its barrier every 80 ms, about twice what the slowest
	// update path (deep-dual, on one core) needs per burst, so the lag
	// measures visibility, not a growing backlog.
	quietFeed = schedule{every: 80 * time.Millisecond, syncEvery: 1}
)

// tenantTable is one VRF tenant's IPv4 table (tenants are v4-only).
type tenantTable struct {
	id uint16
	t  *fib.Table
}

// inputs is everything one run generates from its seed. fibserve
// receives only the table files and the traffic; the keys, oracle
// labels and feed stay in the generator.
type inputs struct {
	w       workload
	v4      *fib.Table
	v6      *ip6.Table    // nil on v4-only workloads
	tenants []tenantTable // vrf-64 only

	// keys4/want4: the IPv4 keys the traffic carries and their labels
	// in the default table; keys6/want6 likewise for IPv6 (random
	// global unicast keys against an empty table on v4-only
	// workloads, for the ladder's ip6 rung).
	keys4, want4 []uint32
	keys6        []ip6.Addr
	want6        []uint32

	// vrfKeys/vrfWant: tenant-scoped lookups, batch b of w.batch keys
	// resolving in tenant vrfIDs[b%len(vrfIDs)]. On workloads without
	// tenants the ladder's vrftab rung folds the default table as the
	// single tenant 1.
	vrfKeys, vrfWant []uint32
	vrfIDs           []uint16

	stream  *stream
	feed    []gen.Update // BGP-shaped updates against the default table
	oracle4 *trie.Trie   // default table, independent of the compressor
}

// makeInputs generates a workload's inputs. The same workload, seed
// and seconds give byte-identical inputs.
func makeInputs(w workload, seed int64, seconds int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{w: w}
	var err error
	switch w.name {
	case "dfz-small", "dfz-churn":
		// The paper's highest-entropy core FIB (Table 1).
		if in.v4, err = profileTable(rng, "as6447"); err != nil {
			return nil, err
		}
		in.keys4 = gen.UniformAddrs(rng, streamKeys)
	case "deep-dual":
		if in.v4, in.keys4, err = gen.DeepFIB(rng, deepRoutes, deepKeys); err != nil {
			return nil, err
		}
		if in.v6, in.keys6, err = ip6.DeepFIB6(rng, deepRoutes, deepKeys); err != nil {
			return nil, err
		}
		in.v4.Dedup()
		dedup6(in.v6)
	case "vrf-64":
		if in.v4, err = profileTable(rng, "mobile"); err != nil {
			return nil, err
		}
		if err := in.addTenants(rng); err != nil {
			return nil, err
		}
	}
	in.oracle4 = trie.FromTable(in.v4)
	in.want4 = lookupAll4(in.oracle4, in.keys4)
	if in.keys6 == nil {
		in.keys6 = ip6.RandomAddrs(rng, spareKeys6)
	}
	t6 := in.v6
	if t6 == nil {
		t6 = ip6.New()
	}
	oracle6 := ip6.FromTable(t6)
	in.want6 = make([]uint32, len(in.keys6))
	for i, a := range in.keys6 {
		in.want6[i] = oracle6.Lookup(a)
	}
	if in.tenants == nil {
		in.vrfKeys, in.vrfWant, in.vrfIDs = in.keys4, in.want4, []uint16{1}
	}

	switch {
	case in.v6 != nil:
		in.stream = dualStream(in.keys4, in.want4, in.keys6, in.want6, w.batch)
	case in.tenants != nil:
		in.stream = vrfStream(in.vrfKeys, in.vrfWant, w.batch, in.vrfIDs)
	default:
		in.stream = legacyStream(in.keys4, in.want4, w.batch)
	}
	in.feed = gen.BGPUpdates(rng, in.v4, feedLen(seconds))
	if w.churn {
		in.stream.alt = churnAlternatives(in.v4, in.keys4, in.want4, w.batch, in.feed)
	}
	return in, nil
}

// feedLen is the number of feed updates a run of the given length can
// send: the open loop's rate for the whole run plus one spare second.
func feedLen(seconds int) int { return int(feedRate) * (seconds + 1) }

func profileTable(rng *rand.Rand, name string) (*fib.Table, error) {
	p, err := gen.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return p.Generate(rng)
}

// addTenants gives each of the vrfTenants tenants the default table
// plus vrfPrivate private routes, and draws the tenant-scoped keys:
// uniform, except that every vrfHitShare-th key lands inside one of
// its tenant's private routes so those routes answer lookups.
func (in *inputs) addTenants(rng *rand.Rand) error {
	private := make([][]fib.Entry, vrfTenants)
	for i := 0; i < vrfTenants; i++ {
		id := uint16(i + 1)
		t := &fib.Table{Entries: slices.Clone(in.v4.Entries)}
		for j := 0; j < vrfPrivate; j++ {
			plen := 16 + rng.Intn(9)
			if err := t.Add(rng.Uint32(), plen, 1+uint32(rng.Intn(int(fib.MaxLabel)))); err != nil {
				return err
			}
		}
		private[i] = slices.Clone(t.Entries[len(in.v4.Entries):])
		t.Dedup()
		in.tenants = append(in.tenants, tenantTable{id: id, t: t})
		in.vrfIDs = append(in.vrfIDs, id)
	}
	batch := in.w.batch
	in.vrfKeys = gen.UniformAddrs(rng, streamKeys)
	for k := range in.vrfKeys {
		if k%vrfHitShare != 0 {
			continue
		}
		ti := (k / batch) % vrfTenants
		e := private[ti][rng.Intn(vrfPrivate)]
		in.vrfKeys[k] = e.Addr | rng.Uint32()&^fib.Mask(e.Len)
	}
	oracles := make([]*trie.Trie, vrfTenants)
	for i, tn := range in.tenants {
		oracles[i] = trie.FromTable(tn.t)
	}
	in.vrfWant = make([]uint32, len(in.vrfKeys))
	for k, a := range in.vrfKeys {
		in.vrfWant[k] = oracles[(k/batch)%vrfTenants].Lookup(a)
	}
	// The default-table rungs of the ladder walk the same keys.
	in.keys4 = in.vrfKeys
	return nil
}

func lookupAll4(t *trie.Trie, keys []uint32) []uint32 {
	out := make([]uint32, len(keys))
	for i, a := range keys {
		out[i] = t.Lookup(a)
	}
	return out
}

// dedup6 keeps the last announcement of every IPv6 prefix, as
// fib.Table.Dedup does for IPv4.
func dedup6(t *ip6.Table) {
	type key struct {
		a ip6.Addr
		l int
	}
	seen := make(map[key]int, len(t.Entries))
	out := t.Entries[:0]
	for _, e := range t.Entries {
		k := key{e.Addr, e.Len}
		if i, ok := seen[k]; ok {
			out[i] = e
			continue
		}
		seen[k] = len(out)
		out = append(out, e)
	}
	t.Entries = out
}

// churnAlternatives replays the feed offline into a control trie and
// records, for every key the feed's prefixes cover, each label the
// key takes along the way: while the feed runs, a reply may carry any
// state the server has published.
func churnAlternatives(base *fib.Table, keys, want []uint32, batch int, feed []gen.Update) map[uint64][]uint32 {
	ctrl := trie.FromTable(base)
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	alt := make(map[uint64][]uint32)
	for _, u := range feed {
		applyControl(ctrl, u)
		lo, hi := u.Addr, u.Addr|^fib.Mask(u.Len)
		i := sort.Search(len(order), func(j int) bool { return keys[order[j]] >= lo })
		for ; i < len(order) && keys[order[i]] <= hi; i++ {
			k := int(order[i])
			l := ctrl.Lookup(keys[k])
			key := uint64(k/batch)<<8 | uint64(k%batch)
			if l != want[k] && !slices.Contains(alt[key], l) {
				alt[key] = append(alt[key], l)
			}
		}
	}
	return alt
}

// applyControl applies one feed update to the offline control trie.
func applyControl(t *trie.Trie, u gen.Update) {
	if u.Withdraw {
		t.Delete(u.Addr, u.Len)
	} else {
		t.Insert(u.Addr, u.Len, u.NextHop)
	}
}

// files names the table files fibserve reads.
type files struct {
	v4, v6  string
	tenants []string // parallel to inputs.tenants
}

// write stores the tables in dir in fibserve's text format.
func (in *inputs) write(dir string) (files, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return files{}, err
	}
	f := files{v4: filepath.Join(dir, "v4.fib")}
	if err := writeTable(f.v4, in.v4.Write); err != nil {
		return files{}, err
	}
	if in.v6 != nil {
		f.v6 = filepath.Join(dir, "v6.fib")
		if err := writeTable(f.v6, in.v6.Write); err != nil {
			return files{}, err
		}
	}
	for _, tn := range in.tenants {
		p := filepath.Join(dir, "vrf-"+strconv.Itoa(int(tn.id))+".fib")
		if err := writeTable(p, tn.t.Write); err != nil {
			return files{}, err
		}
		f.tenants = append(f.tenants, p)
	}
	return f, nil
}

func writeTable(path string, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// serverArgs is fibserve's command line for these inputs: always one
// serve loop, 16 shards and the default barriers, with the update
// plane and the admin endpoint attached.
func (in *inputs) serverArgs(f files, udp, updates, admin string) []string {
	args := []string{"-listen", udp, "-shards", "16", "-workers", "1", "-updates", updates, "-admin", admin}
	if f.v6 != "" {
		args = append(args, "-fib6", f.v6)
	}
	if len(f.tenants) > 0 {
		specs := make([]string, len(f.tenants))
		for i, p := range f.tenants {
			specs[i] = strconv.Itoa(int(in.tenants[i].id)) + "=" + p
		}
		args = append(args, "-vrfs", strings.Join(specs, ","))
	}
	return append(args, f.v4)
}
