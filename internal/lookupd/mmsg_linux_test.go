//go:build linux && (amd64 || arm64)

package lookupd

import (
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"

	"fibcomp/internal/ip6"
	"fibcomp/internal/obs"
)

// TestBurstDispatchZeroAllocs extends the 0-alloc-per-datagram
// contract to the burst path: resolving a full recvmmsg burst of
// mixed-family datagrams — one view pin for the whole burst, 32
// dispatches, reply packing into the sendmmsg slots — touches the
// heap zero times. The worker's stats slot carries live service-time
// and burst-size histograms, so the contract covers the fully
// instrumented path, not a telemetry-stripped one.
func TestBurstDispatchZeroAllocs(t *testing.T) {
	f4a, _, f6a, _, _, _ := parallelEngines(t)
	s := &Server{}
	s.fib.Store(&engineBox{f4a})
	s.fib6.Store(&engineBox6{f6a})
	b := new(burstConn)
	sc := new(scratch)
	st := new(workerStats)
	st.svc = obs.NewHistogram(1e-9)
	st.burst = obs.NewHistogram(0)

	rng := rand.New(rand.NewSource(41))
	for i := 0; i < burstSize; i++ {
		switch i % 3 {
		case 0: // legacy v4, full batch
			for j := 0; j < MaxBatch; j++ {
				binary.BigEndian.PutUint32(b.reqs[i][4*j:], rng.Uint32())
			}
			b.recvHdrs[i].n = 4 * MaxBatch
		case 1: // tagged v4
			b.reqs[i][0] = AFInet
			for j := 0; j < MaxBatch; j++ {
				binary.BigEndian.PutUint32(b.reqs[i][1+4*j:], rng.Uint32())
			}
			b.recvHdrs[i].n = 1 + 4*MaxBatch
		case 2: // tagged v6, full batch
			b.reqs[i][0] = AFInet6
			for j := 0; j < MaxBatch; j++ {
				a := ip6.Addr{Hi: rng.Uint64(), Lo: rng.Uint64()}
				binary.BigEndian.PutUint64(b.reqs[i][1+16*j:], a.Hi)
				binary.BigEndian.PutUint64(b.reqs[i][1+16*j+8:], a.Lo)
			}
			b.recvHdrs[i].n = 1 + 16*MaxBatch
		}
	}

	if out := s.dispatchAll(b, burstSize, sc, st); out != burstSize {
		t.Fatalf("dispatchAll packed %d replies, want %d", out, burstSize)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if out := s.dispatchAll(b, burstSize, sc, st); out != burstSize {
			t.Fatalf("dispatchAll packed %d replies, want %d", out, burstSize)
		}
	})
	if allocs != 0 {
		t.Fatalf("burst dispatch allocated %.2f times per burst, want 0", allocs)
	}

	// A malformed datagram in the middle of a burst costs its reply
	// slot and a drop count, nothing else.
	b.recvHdrs[5].n = 3
	dropsBefore := st.drops.Load()
	if out := s.dispatchAll(b, burstSize, sc, st); out != burstSize-1 {
		t.Fatalf("burst with one malformed datagram packed %d replies, want %d", out, burstSize-1)
	}
	if st.drops.Load() != dropsBefore+1 {
		t.Fatal("malformed datagram in burst not counted as a drop")
	}

	// The instrumentation actually recorded: one histogram sample per
	// burst, every sample a full burstSize datagrams.
	if n := st.burst.Count(); n == 0 {
		t.Fatal("burst-size histogram recorded nothing")
	}
	if st.svc.Count() != st.burst.Count() {
		t.Fatalf("service-time samples (%d) != burst samples (%d)", st.svc.Count(), st.burst.Count())
	}
	if got := st.burst.Quantile(0.5); got < float64(burstSize)*0.9 || got > float64(burstSize)*1.1 {
		t.Fatalf("burst-size p50 = %.1f, want ~%d", got, burstSize)
	}
}

// TestBurstRoundTripZeroAllocs closes the gap TestBurstDispatchZeroAllocs
// leaves: the syscall half of the burst loop. A real loopback socket
// carries each round through recv (recvmmsg via RawConn.Read),
// dispatchAll and send (sendmmsg via RawConn.Write), with the client
// writing the requests and reading every reply inside the measured
// function, and the whole round must touch the heap zero times.
func TestBurstRoundTripZeroAllocs(t *testing.T) {
	f4a, _, f6a, _, o4, o6 := parallelEngines(t)
	s := &Server{}
	s.fib.Store(&engineBox{f4a})
	s.fib6.Store(&engineBox6{f6a})
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	b := newBurstConn(conn)
	if b == nil {
		t.Fatal("no raw descriptor behind a UDP socket")
	}
	client, err := net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	deadline := time.Now().Add(time.Minute)
	conn.SetDeadline(deadline)
	client.SetDeadline(deadline)

	// Eight datagrams per round, alternating a legacy v4 batch and a
	// tagged v6 batch; loopback delivers them all before recv runs.
	const perRound = 8
	rng := rand.New(rand.NewSource(43))
	var reqs [perRound][]byte
	var want [perRound][]uint32
	for i := range reqs {
		if i%2 == 0 {
			req := make([]byte, 4*16)
			for j := 0; j < 16; j++ {
				a := rng.Uint32()
				binary.BigEndian.PutUint32(req[4*j:], a)
				want[i] = append(want[i], o4.Lookup(a))
			}
			reqs[i] = req
			continue
		}
		req := make([]byte, 1+16*16)
		req[0] = AFInet6
		for j := 0; j < 16; j++ {
			a := ip6.Addr{Hi: 0x2000000000000000 | rng.Uint64()>>3, Lo: rng.Uint64()}
			binary.BigEndian.PutUint64(req[1+16*j:], a.Hi)
			binary.BigEndian.PutUint64(req[1+16*j+8:], a.Lo)
			want[i] = append(want[i], o6.Lookup(a))
		}
		reqs[i] = req
	}
	sc := new(scratch)
	st := new(workerStats)
	st.svc = obs.NewHistogram(1e-9)
	st.burst = obs.NewHistogram(0)
	reply := make([]byte, maxResponse)
	var failure string
	round := func() {
		for _, req := range reqs {
			if _, err := client.Write(req); err != nil {
				failure = "client write: " + err.Error()
				return
			}
		}
		for got := 0; got < perRound; {
			n, err := b.recv()
			if err != nil {
				failure = "recv: " + err.Error()
				return
			}
			out := s.dispatchAll(b, n, sc, st)
			if err := b.send(out); err != nil {
				failure = "send: " + err.Error()
				return
			}
			got += n
		}
		for i := range reqs {
			n, err := client.Read(reply)
			if err != nil {
				failure = "client read: " + err.Error()
				return
			}
			// Replies come back in request order on loopback, one
			// 4-byte label per address; the v6 reply leads with the
			// echoed family byte.
			body := reply[:n]
			if i%2 == 1 {
				body = body[1:]
			}
			if len(body) != 4*len(want[i]) {
				failure = "reply length mismatch"
				return
			}
			for j, w := range want[i] {
				if binary.BigEndian.Uint32(body[4*j:]) != w {
					failure = "wrong next hop in reply"
					return
				}
			}
		}
	}
	round()
	if failure != "" {
		t.Fatal(failure)
	}
	allocs := testing.AllocsPerRun(50, round)
	if failure != "" {
		t.Fatal(failure)
	}
	if allocs != 0 {
		t.Fatalf("burst round trip allocated %.2f times per round, want 0", allocs)
	}
}
