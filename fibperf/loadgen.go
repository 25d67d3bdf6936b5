package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"time"
)

// replyTimeout is how long the closed loop waits for the oldest
// in-flight reply before counting every in-flight datagram as failed.
const replyTimeout = time.Second

// loop is the lookup generator: a closed loop over one connected UDP
// socket. window datagrams stay in flight; each reply is checked
// against the stream, and only then does the next datagram go out.
// Replies and their replacements move in batches (batchConn), so the
// generator spends less per datagram than the server it drives.
// Replies are matched first in, first out: one serve loop answers a
// loopback socket in order, and a reordered or lost reply shows up as
// a wrong label or a timeout, both counted as failures.
//
// The loop allocates nothing once built (selfCheck proves it), so
// allocation counts taken around it belong to whatever it drives.
type loop struct {
	bc     *batchConn
	s      *stream
	window int

	next     int     // next datagram of the stream to send
	inflight []int32 // FIFO ring of in-flight datagram indices
	sentAt   []int64 // their send times, ns since base
	head, n  int
	base     time.Time

	rtt []uint32 // round trips in ns of recorded runs, up to cap

	// windowMlps holds the lookup rate of each rateWindow of recorded
	// runs.
	windowMlps []float64

	datagrams, addrs, failed int64
}

// rateWindow is the interval over which one lookup-rate sample is
// taken; the reported rate is the median sample, so a short stall of
// the host moves one sample, not the result.
const rateWindow = 250 * time.Millisecond

func newLoop(conn *net.UDPConn, s *stream, window, maxSamples int) (*loop, error) {
	bc, err := newBatchConn(conn, window)
	if err != nil {
		return nil, err
	}
	return &loop{
		bc:         bc,
		s:          s,
		window:     window,
		inflight:   make([]int32, window),
		sentAt:     make([]int64, window),
		base:       time.Now(),
		rtt:        make([]uint32, 0, maxSamples),
		windowMlps: make([]float64, 0, 1024),
	}, nil
}

// queue puts the stream's next datagram in flight and in the send
// batch.
func (l *loop) queue(at int64) {
	d := l.next
	l.next++
	if l.next == l.s.n() {
		l.next = 0
	}
	i := (l.head + l.n) % l.window
	l.inflight[i] = int32(d)
	l.sentAt[i] = at
	l.n++
	l.bc.add(l.s.request(d))
}

// run keeps the window full for dur, or until it has sent limit
// datagrams when limit > 0, then drains it. With record set it keeps
// every round trip for the percentiles. It returns the time from the
// first send to the last reply. A socket error other than a reply
// timeout ends the run.
func (l *loop) run(dur time.Duration, limit int64, record bool) (time.Duration, error) {
	start := time.Now()
	stop := start.Add(dur)
	if limit <= 0 {
		limit = math.MaxInt64
	}
	fill := func(now time.Time) error {
		at := int64(time.Since(l.base))
		for l.n < l.window && limit > 0 && now.Before(stop) {
			limit--
			l.queue(at)
		}
		return l.bc.flush()
	}
	mark, markAddrs := start, l.addrs
	if err := fill(start); err != nil {
		return 0, err
	}
	for reads := 0; l.n > 0; reads++ {
		if reads%64 == 0 {
			l.bc.conn.SetReadDeadline(time.Now().Add(replyTimeout))
		}
		got, err := l.bc.recv(l.n)
		now := time.Now()
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				return 0, err
			}
			l.failed += int64(l.n)
			l.n = 0
			l.discardLate()
			reads = -1 // re-arm the deadline
			if err := fill(now); err != nil {
				return 0, err
			}
			continue
		}
		at := int64(now.Sub(l.base))
		for i := 0; i < got; i++ {
			d := int(l.inflight[l.head])
			rt := at - l.sentAt[l.head]
			l.head = (l.head + 1) % l.window
			l.n--
			l.datagrams++
			l.addrs += int64(l.s.addrs(d))
			if !l.s.check(d, l.bc.reply(i)) {
				l.failed++
			}
			if record && len(l.rtt) < cap(l.rtt) {
				l.rtt = append(l.rtt, uint32(rt))
			}
		}
		if el := now.Sub(mark); record && el >= rateWindow && len(l.windowMlps) < cap(l.windowMlps) {
			l.windowMlps = append(l.windowMlps, float64(l.addrs-markAddrs)/el.Seconds()/1e6)
			mark, markAddrs = now, l.addrs
		}
		if err := fill(now); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// discardLate reads and drops replies that arrive after a timeout, so
// they cannot be matched to later datagrams.
func (l *loop) discardLate() {
	for {
		l.bc.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if _, err := l.bc.recv(l.window); err != nil {
			return
		}
	}
}

// percentile returns the q-quantile (0..1) of the recorded round trips
// in microseconds, by nearest rank.
func percentile(ns []uint32, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	i := int(q * float64(len(s)-1))
	return float64(s[i]) / 1e3
}

// selfCheck drives the generator against an in-process echo socket
// that answers each datagram with the reply the stream expects, and
// returns the process's heap allocations per datagram. Both ends are
// allocation-free, so anything above zero is the generator's fault.
func selfCheck(s *stream, window int, dur time.Duration) (float64, error) {
	echo, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64<<10)
		for d := 0; ; d = (d + 1) % s.n() {
			_, peer, err := echo.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if _, err := echo.WriteToUDPAddrPort(s.reply(d), peer); err != nil {
				return
			}
		}
	}()
	defer func() {
		echo.Close()
		<-done
	}()
	conn, err := net.DialUDP("udp", nil, echo.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	l, err := newLoop(conn, s, window, 0)
	if err != nil {
		return 0, err
	}
	if _, err := l.run(dur/4, 0, false); err != nil { // warm the runtime's lazy paths
		return 0, err
	}
	before := mallocs()
	base := l.datagrams
	if _, err := l.run(dur, 0, false); err != nil {
		return 0, err
	}
	n := l.datagrams - base
	if l.failed > 0 || n == 0 {
		return 0, fmt.Errorf("self-check: %d of %d echoed replies failed", l.failed, l.datagrams)
	}
	return float64(mallocs()-before) / float64(n), nil
}
