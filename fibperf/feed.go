package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/trie"
)

// feeder is the update generator: one ribd session on fibserve's
// -updates port, speaking the feed text protocol. It is anonymous and
// feeds the default table, or, for a VRF tenant, opens with
// "hello fibperf vrf <id>" and feeds that tenant's plane.
type feeder struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialFeeder(addr string, vrf uint16) (*feeder, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	f := &feeder{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
	if vrf == 0 {
		return f, nil
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	_, err = fmt.Fprintf(conn, "hello fibperf vrf %d\n", vrf)
	var line []byte
	if err == nil {
		line, err = f.br.ReadSlice('\n')
	}
	if err == nil && !bytes.HasPrefix(line, []byte("hello fibperf ")) {
		err = fmt.Errorf("hello answered %q", line)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("update session for vrf %d: %v", vrf, err)
	}
	conn.SetDeadline(time.Time{})
	return f, nil
}

func (f *feeder) close() { f.conn.Close() }

// feedPlan is a feed encoded once before timing: burst i is
// data[off[i]:off[i+1]], burstUpdates announce/withdraw lines, and
// every s.syncEvery-th burst ends with "sync <k>".
type feedPlan struct {
	s    schedule
	data []byte
	off  []int32
}

func planFeed(feed []gen.Update, s schedule) (*feedPlan, error) {
	p := &feedPlan{s: s, off: []int32{0}}
	var buf bytes.Buffer
	for i := 0; (i+1)*burstUpdates <= len(feed); i++ {
		if err := gen.WriteUpdates(&buf, feed[i*burstUpdates:(i+1)*burstUpdates]); err != nil {
			return nil, err
		}
		if (i+1)%s.syncEvery == 0 {
			fmt.Fprintf(&buf, "sync %d\n", (i+1)/s.syncEvery-1)
		}
		p.off = append(p.off, int32(buf.Len()))
	}
	p.data = buf.Bytes()
	return p, nil
}

func (p *feedPlan) bursts() int { return len(p.off) - 1 }

// feedResult is what one open-loop feed run observed.
type feedResult struct {
	bursts int       // bursts sent
	lagMS  []float64 // per barrier: from when its sync was due to its synced reply
	lateMS []float64 // per burst: how late the generator sent it
	errors int64     // "error ..." lines from the session
}

// run sends the feed as an open loop for dur: burst i is due at
// i×p.s.every after the start and goes out then, whether or not
// earlier barriers have been answered. A final "sync end" barrier
// waits until everything sent is published.
func (f *feeder) run(p *feedPlan, dur time.Duration) (feedResult, error) {
	nb := min(p.bursts(), int(dur/p.s.every))
	due := make([]atomic.Int64, nb/p.s.syncEvery+1) // ns since base
	base := time.Now()

	type readOut struct {
		lag    []float64
		errors int64
		err    error
	}
	done := make(chan readOut, 1)
	go func() {
		out := readOut{lag: make([]float64, 0, len(due))}
		for {
			line, err := f.br.ReadSlice('\n')
			if err != nil {
				out.err = fmt.Errorf("update session: %v", err)
				break
			}
			at := int64(time.Since(base))
			tok, ok := bytes.CutPrefix(line, []byte("synced "))
			if !ok {
				if bytes.HasPrefix(line, []byte("error")) {
					out.errors++
				}
				continue
			}
			tok, _, _ = bytes.Cut(tok, []byte(" "))
			if string(tok) == "end" {
				break
			}
			k, err := strconv.Atoi(string(tok))
			if err != nil || k >= len(due) {
				out.err = fmt.Errorf("update session: unexpected reply %q", line)
				break
			}
			out.lag = append(out.lag, float64(at-due[k].Load())/1e6)
		}
		done <- out
	}()

	res := feedResult{bursts: nb, lateMS: make([]float64, 0, nb)}
	var werr error
	for i := 0; i < nb && werr == nil; i++ {
		at := time.Duration(i) * p.s.every
		time.Sleep(time.Until(base.Add(at)))
		if (i+1)%p.s.syncEvery == 0 {
			due[(i+1)/p.s.syncEvery-1].Store(int64(at))
		}
		res.lateMS = append(res.lateMS, float64(time.Since(base)-at)/1e6)
		_, werr = f.conn.Write(p.data[p.off[i]:p.off[i+1]])
	}
	if werr == nil {
		_, werr = f.conn.Write([]byte("sync end\n"))
	}
	if werr != nil {
		f.conn.Close() // unblocks the reader
		<-done
		return res, fmt.Errorf("update session: %v", werr)
	}
	f.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	out := <-done
	res.lagMS, res.errors = out.lag, out.errors
	return res, out.err
}

// sweepStream builds the post-feed check: one address inside every
// route of the base table and every prefix the sent feed touched,
// labelled by the feed replayed offline into a control trie, in
// datagrams of 256 addresses: legacy ones, or VRF-tagged for tenant
// vrf when it is not 0.
func sweepStream(base *fib.Table, sent []gen.Update, seed int64, vrf uint16) *stream {
	ctrl := trie.FromTable(base)
	for _, u := range sent {
		applyControl(ctrl, u)
	}
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint32, 0, len(base.Entries)+len(sent)+256)
	for _, e := range base.Entries {
		keys = append(keys, e.Addr|rng.Uint32()&^fib.Mask(e.Len))
	}
	for _, u := range sent {
		keys = append(keys, u.Addr|rng.Uint32()&^fib.Mask(u.Len))
	}
	for len(keys)%256 != 0 {
		keys = append(keys, rng.Uint32())
	}
	if vrf != 0 {
		return vrfStream(keys, lookupAll4(ctrl, keys), 256, []uint16{vrf})
	}
	return legacyStream(keys, lookupAll4(ctrl, keys), 256)
}
