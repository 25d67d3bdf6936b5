package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one fibserve process under test.
type server struct {
	argv                []string
	udp, updates, admin string
	cmd                 *exec.Cmd
	started             time.Time
	exited              chan struct{} // closed once the process has been reaped
	log                 *os.File
}

// reaper tracks every fibserve process this run started, so each one
// is stopped on every exit path: normal return, error return, panic
// (deferred) and SIGINT/SIGTERM. Pdeathsig covers the rest: the kernel
// kills a server whose generator dies.
type reaper struct {
	mu   sync.Mutex
	live map[*server]bool
}

func newReaper() *reaper { return &reaper{live: make(map[*server]bool)} }

func (r *reaper) stopAll() {
	r.mu.Lock()
	live := make([]*server, 0, len(r.live))
	for s := range r.live {
		live = append(live, s)
	}
	r.mu.Unlock()
	for _, s := range live {
		s.stop(r)
	}
}

// serverEnv is the environment fibserve runs with: only the Go
// runtime's own settings, copied from ours when set, so a run's
// provenance records the server's whole environment.
func serverEnv() []string {
	env := []string{}
	for _, k := range []string{"GOGC", "GOMAXPROCS", "GOMEMLIMIT", "GODEBUG", "GOTRACEBACK"} {
		if v, ok := os.LookupEnv(k); ok {
			env = append(env, k+"="+v)
		}
	}
	return env
}

// loopbackPorts reserves one free UDP and two free TCP loopback ports
// by binding port 0 and releasing it.
func loopbackPorts() (udp, tcp1, tcp2 string, err error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return "", "", "", err
	}
	udp = pc.LocalAddr().String()
	pc.Close()
	var addrs [2]string
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", "", "", err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return udp, addrs[0], addrs[1], nil
}

// startServer launches fibserve on the placement's server CPUs with
// the arguments args builds from its three loopback addresses; its
// output goes to logPath.
func startServer(r *reaper, pl placement, bin string, args func(udp, updates, admin string) []string, env []string, logPath string) (*server, error) {
	udp, upd, admin, err := loopbackPorts()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	s := &server{udp: udp, updates: upd, admin: admin, log: log, exited: make(chan struct{})}
	s.argv = append([]string{bin}, args(udp, upd, admin)...)
	s.cmd = exec.Command(bin, s.argv[1:]...)
	s.cmd.Env = env
	s.cmd.Stdout, s.cmd.Stderr = log, log
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.started = time.Now()
	if err := pl.startOn(s.cmd.Start); err != nil {
		log.Close()
		return nil, err
	}
	r.live[s] = true
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// stop ends the server: SIGTERM for its graceful drain, SIGKILL if
// that takes over five seconds. It returns once the process is reaped.
func (s *server) stop(r *reaper) {
	select {
	case <-s.exited:
	default:
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(5 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
	}
	s.log.Close()
	r.mu.Lock()
	delete(r.live, s)
	r.mu.Unlock()
}

// waitReady probes the server until it answers req with want, and
// returns the time from exec to that first correct answer: table
// parse, fold, serialize and bind.
func (s *server) waitReady(req, want []byte, limit time.Duration) (time.Duration, error) {
	raddr, err := net.ResolveUDPAddr("udp", s.udp)
	if err != nil {
		return 0, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	buf := make([]byte, 64<<10)
	for {
		select {
		case <-s.exited:
			return 0, fmt.Errorf("fibserve exited during set-up; see %s", s.log.Name())
		default:
		}
		if time.Since(s.started) > limit {
			return 0, fmt.Errorf("fibserve did not answer within %v", limit)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Millisecond))
		if _, err := conn.Write(req); err != nil {
			// Refused until the socket is bound: try again shortly.
			time.Sleep(time.Millisecond)
			continue
		}
		n, err := conn.Read(buf)
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				time.Sleep(time.Millisecond)
			}
			continue
		}
		at := time.Since(s.started)
		if !bytes.Equal(buf[:n], want) {
			return 0, fmt.Errorf("first reply differs from the oracle: got % x, want % x", buf[:n], want)
		}
		return at, nil
	}
}

// peakRSSMB reads the server's peak resident set size so far (VmHWM)
// from /proc. The peak, unlike the current VmRSS, does not depend on
// whether the runtime has just returned memory to the kernel.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %v", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line for pid %d", s.cmd.Process.Pid)
}

// statusz is the part of fibserve's /statusz document the benchmark
// reads: the bytes of every FIB the server holds.
type statusz struct {
	Serving struct {
		SizeBytes int `json:"size_bytes"`
	} `json:"serving"`
	Serving6 *struct {
		SizeBytes int `json:"size_bytes"`
	} `json:"serving6"`
	VRFs *struct {
		SharedBytes int `json:"shared_bytes"`
		UniqueBytes int `json:"unique_bytes"`
	} `json:"vrfs"`
}

// residentKB is the FIB bytes the server serves: the default table of
// both families plus the VRF tenants' shared and private bytes.
func (st statusz) residentKB() float64 {
	b := st.Serving.SizeBytes
	if st.Serving6 != nil {
		b += st.Serving6.SizeBytes
	}
	if st.VRFs != nil {
		b += st.VRFs.SharedBytes + st.VRFs.UniqueBytes
	}
	return float64(b) / 1024
}

// waitAdmin waits until the admin endpoint answers /healthz. fibserve
// binds it last, after the lookup socket and the update plane, so
// once it answers every port the benchmark uses is open.
func (s *server) waitAdmin(limit time.Duration) error {
	c := http.Client{Timeout: time.Second}
	for start := time.Now(); ; time.Sleep(5 * time.Millisecond) {
		resp, err := c.Get("http://" + s.admin + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Since(start) > limit {
			return fmt.Errorf("admin endpoint %s not up after %v: %v", s.admin, limit, err)
		}
	}
}

func (s *server) statusz() (statusz, error) {
	var st statusz
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + s.admin + "/statusz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statusz: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("/statusz: %v", err)
	}
	return st, nil
}
