// Command fibperf is the repository's benchmark. One run measures one
// workload. It generates the workload's tables and traffic from
// -seed, launches the real fibserve binary on them, drives it over
// loopback UDP (lookups, closed loop) and TCP (route updates, open
// loop) from this one process, checks every reply against an oracle
// that is independent of the compressor, and prints one JSON result
// line last. With -trace 1 it instead runs the per-layer ladder in
// process (ladder.go). README.md describes the workloads and metrics;
// run.sh builds both binaries and runs this one:
//
//	bash fibperf/run.sh --workload dfz-small --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Run shape.
const (
	setupRuns    = 3               // fibserve launches per run; setup_s is their median
	setupLimit   = time.Minute     // longest a launch may take to answer
	maxRTTs      = 1 << 22         // round trips kept for the percentiles
	quietSeconds = 4 * time.Second // the quiet feed's run after the lookups
	sweepWindow  = 8

	// warmup is the closed-loop traffic before the measured phase:
	// long enough for the server's heap to reach its first GC goal
	// under lookup load, so the peak RSS read at the end of the phase
	// does not depend on how fast the run went.
	warmup = 3 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run prints before its result line: what was
// run, where, and the counts behind each metric.
type report struct {
	Provenance provenance     `json:"provenance"`
	Run        map[string]any `json:"run"`
}

type provenance struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Trace      int      `json:"trace"`
	ServerArgv []string `json:"fibserve_argv,omitempty"`
	ServerEnv  []string `json:"fibserve_env"`
	CPU        string   `json:"cpu_model"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	GenCPUs    []int    `json:"generator_cpus,omitempty"`
	ServerCPUs []int    `json:"fibserve_cpus,omitempty"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: dfz-small, deep-dual, dfz-churn or vrf-64")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced in-process ladder instead of the end-to-end run")
		fibserve = flag.String("fibserve", "", "fibserve binary (end-to-end runs)")
		work     = flag.String("work", ".bench_build/work", "directory for generated tables, server logs and traces")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *fibserve, *work); err != nil {
		fmt.Fprintf(os.Stderr, "fibperf: %v\n", err)
		os.Exit(1)
	}
}

// progress notes a run's phases on standard error with the time since
// the run started.
type progress time.Time

func (p progress) log(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fibperf: %6.2fs "+format+"\n", append([]any{time.Since(time.Time(p)).Seconds()}, args...)...)
}

func run(name string, seed int64, seconds, trace int, bin, work string) error {
	prog := progress(time.Now())
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	if trace == 0 && bin == "" {
		return fmt.Errorf("an end-to-end run needs -fibserve")
	}
	dir := filepath.Join(work, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rep := report{
		Provenance: provenance{
			Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
			ServerEnv: serverEnv(), CPU: cpuModel(), NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		},
		Run: map[string]any{},
	}
	in, err := makeInputs(w, seed, seconds)
	if err != nil {
		return fmt.Errorf("inputs: %v", err)
	}
	prog.log("inputs generated")
	dur := time.Duration(seconds) * time.Second

	var res result
	if trace == 1 {
		res, err = ladder(in, dir, seed, dur, rep.Run, prog)
	} else {
		r := newReaper()
		defer r.stopAll()
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			r.stopAll()
			os.Exit(1)
		}()
		var pl placement
		if pl, err = newPlacement(); err != nil {
			return err
		}
		if err := pl.pinSelf(); err != nil {
			return err
		}
		rep.Provenance.GenCPUs, rep.Provenance.ServerCPUs = pl.gen.cpus(), pl.all.cpus()
		rep.Provenance.GOMAXPROCS = runtime.GOMAXPROCS(0)
		res, err = endToEnd(in, r, pl, bin, dir, seed, dur, &rep, prog)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	b, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// endToEnd is the untraced run against the real server.
func endToEnd(in *inputs, r *reaper, pl placement, bin, dir string, seed int64, dur time.Duration, rep *report, prog progress) (result, error) {
	res := result{Metrics: map[string]metric{}}
	f, err := in.write(dir)
	if err != nil {
		return res, err
	}
	args := func(udp, updates, admin string) []string { return in.serverArgs(f, udp, updates, admin) }
	env := serverEnv()

	// Set-up: exec to the first answer that matches the oracle,
	// setupRuns times; the last server stays up for the measurement.
	var (
		srv    *server
		setups []float64
	)
	for i := 0; i < setupRuns; i++ {
		if srv, err = startServer(r, pl, bin, args, env, filepath.Join(dir, "fibserve.log")); err != nil {
			return res, err
		}
		d, err := srv.waitReady(in.stream.request(0), in.stream.reply(0), setupLimit)
		if err != nil {
			return res, err
		}
		res.Attempted++
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			srv.stop(r)
		}
	}
	defer srv.stop(r)
	prog.log("set-up %v", setups)
	rep.Provenance.ServerArgv = srv.argv
	if err := srv.waitAdmin(setupLimit); err != nil {
		return res, err
	}

	raddr, err := net.ResolveUDPAddr("udp", srv.udp)
	if err != nil {
		return res, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return res, err
	}
	defer conn.Close()
	// The feed goes to the default table, or on vrf-64 to the first
	// tenant's own update plane.
	feedTable, feedVRF := in.v4, uint16(0)
	if len(in.tenants) > 0 {
		feedTable, feedVRF = in.tenants[0].t, in.tenants[0].id
	}
	fd, err := dialFeeder(srv.updates, feedVRF)
	if err != nil {
		return res, err
	}
	defer fd.close()
	sched := quietFeed
	if in.w.churn {
		sched = churnFeed
	}
	plan, err := planFeed(in.feed, sched)
	if err != nil {
		return res, err
	}

	l, err := newLoop(conn, in.stream, in.w.window, maxRTTs)
	if err != nil {
		return res, err
	}
	if _, err := l.run(warmup, 0, false); err != nil {
		return res, fmt.Errorf("warm-up: %v", err)
	}
	// On dfz-churn the feed runs beside the measured lookups; on the
	// other workloads it runs after them, against an idle server.
	var (
		feed    feedResult
		feedErr = make(chan error, 1)
	)
	if in.w.churn {
		go func() {
			var err error
			feed, err = fd.run(plan, dur)
			feedErr <- err
		}()
	}
	addrs0, steal0 := l.addrs, hostCPU()
	elapsed, err := l.run(dur, 0, true)
	steal1 := hostCPU()
	if err != nil {
		return res, fmt.Errorf("lookups: %v", err)
	}
	if in.w.churn {
		if err := <-feedErr; err != nil {
			return res, err
		}
	}
	prog.log("lookups measured")
	rss, err := srv.peakRSSMB()
	if err != nil {
		return res, err
	}
	st, err := srv.statusz()
	if err != nil {
		return res, err
	}
	if !in.w.churn {
		if feed, err = fd.run(plan, quietSeconds); err != nil {
			return res, err
		}
	}

	prog.log("feed done")
	// Everything sent is published: every route must now match the
	// feed replayed offline.
	sw, err := newLoop(conn, sweepStream(feedTable, in.feed[:feed.bursts*burstUpdates], seed, feedVRF), sweepWindow, 0)
	if err != nil {
		return res, err
	}
	if _, err := sw.run(time.Minute, int64(sw.s.n()), false); err != nil {
		return res, fmt.Errorf("sweep: %v", err)
	}
	prog.log("sweep done")
	lag := feed.lagMS
	res.Attempted += int64(len(lag)) + int64(sw.s.n()) + l.datagrams
	res.Failed += feed.errors + sw.failed + int64(sw.s.n()) - sw.datagrams + l.failed

	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["lookup_mlps"] = metric{median(l.windowMlps), "Mlps"}
	res.Metrics["lookup_p50_us"] = metric{percentile(l.rtt, 0.5), "us"}
	res.Metrics["rss_mb"] = metric{rss, "MB"}
	res.Metrics["resident_kb"] = metric{st.residentKB(), "KB"}
	res.Metrics["update_lag_p50_ms"] = metric{median(lag), "ms"}
	res.Correct = res.Failed == 0 && len(lag) > 0 && len(l.rtt) > 0

	rep.Run["setup_s"] = setups
	rep.Run["lookup_datagrams"] = l.datagrams
	rep.Run["lookup_rtt_samples"] = len(l.rtt)
	rep.Run["lookup_rtt_p99_us"] = percentile(l.rtt, 0.99)
	rep.Run["lookup_window_mlps"] = l.windowMlps
	rep.Run["lookup_mlps_mean"] = float64(l.addrs-addrs0) / elapsed.Seconds() / 1e6
	rep.Run["host_steal_pct"] = steal1.stealPct(steal0)
	rep.Run["feed_updates"] = feed.bursts * burstUpdates
	rep.Run["feed_late_ms_p50"] = median(feed.lateMS)
	rep.Run["feed_late_ms_max"] = quantile(feed.lateMS, 1)
	rep.Run["update_lag_samples"] = len(lag)
	rep.Run["update_lag_ms_p90"] = quantile(lag, 0.9)
	rep.Run["sweep_addresses"] = sw.addrs
	return res, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTicks is the host's aggregate CPU time from /proc/stat: all of
// it, and the part the hypervisor ran someone else (steal).
type cpuTicks struct{ total, steal uint64 }

func hostCPU() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	// "cpu" user nice system idle iowait irq softirq steal; the guest
	// fields that follow are already counted in user and nice.
	fields := strings.Fields(line)
	fields = fields[1:min(9, len(fields))]
	for i, f := range fields {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of host CPU time stolen since before, in
// percent: how much the machine's other tenants took during a phase.
func (t cpuTicks) stealPct(before cpuTicks) float64 {
	if t.total <= before.total {
		return 0
	}
	return 100 * float64(t.steal-before.steal) / float64(t.total-before.total)
}

// cpuModel reads the host's CPU model name for the run's fingerprint.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
