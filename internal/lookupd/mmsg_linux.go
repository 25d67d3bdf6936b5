//go:build linux && (amd64 || arm64)

package lookupd

import (
	"net"
	"syscall"
	"time"
	"unsafe"
)

// burstSize is how many datagrams one recvmmsg/sendmmsg moves. 32 is
// past the knee of the syscall-amortization curve (one syscall per 32
// datagrams cuts the syscall share of serve time to ~3% of the
// one-per-datagram loop) while keeping the per-worker buffer block
// (32 × ~5 KiB) comfortably inside L2.
const burstSize = 32

// mmsghdr mirrors struct mmsghdr from <sys/socket.h>: a msghdr plus
// the kernel-filled transfer length. The 4 trailing pad bytes match
// the C struct's alignment on 64-bit (msg_len is a 4-byte unsigned
// int inside an 8-aligned struct).
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// burstConn wraps a UDP socket with recvmmsg/sendmmsg burst buffers:
// one slot per datagram, each with its own request bytes, reply
// bytes, and raw peer sockaddr. The sockaddr is captured by recvmmsg
// and handed back verbatim to sendmmsg — the peer address is never
// parsed, only echoed.
type burstConn struct {
	rc syscall.RawConn

	names [burstSize]syscall.RawSockaddrAny
	reqs  [burstSize][maxRequest + 4]byte
	resps [burstSize][maxResponse]byte

	recvIovs [burstSize]syscall.Iovec
	recvHdrs [burstSize]mmsghdr
	sendIovs [burstSize]syscall.Iovec
	sendHdrs [burstSize]mmsghdr

	// The RawConn callbacks, bound once in newBurstConn. A closure
	// capturing recv's or send's locals escapes into RawConn.Read/Write
	// and costs heap objects on every burst; method values bound at
	// construction, with their inputs and results in the fields below,
	// cost nothing per call.
	recvFn, sendFn func(fd uintptr) bool
	n              uintptr       // datagrams moved by the last syscall
	errno          syscall.Errno // its error
	sent, out      int           // sendOnce's window: slots [sent, out)
}

// newBurstConn builds the burst wrapper, or returns nil if the conn
// can't expose its raw descriptor (the caller then falls back to the
// portable loop).
func newBurstConn(conn *net.UDPConn) *burstConn {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	b := &burstConn{rc: rc}
	b.recvFn, b.sendFn = b.recvOnce, b.sendOnce
	for i := 0; i < burstSize; i++ {
		b.recvIovs[i].Base = &b.reqs[i][0]
		b.recvIovs[i].SetLen(len(b.reqs[i]))
		h := &b.recvHdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&b.names[i]))
		h.Iov = &b.recvIovs[i]
		h.Iovlen = 1
		sh := &b.sendHdrs[i].hdr
		sh.Iov = &b.sendIovs[i]
		sh.Iovlen = 1
	}
	return b
}

// recv runs inside the netpoller's RawConn.Read protocol: try a
// non-blocking recvmmsg; on EAGAIN return false so the runtime parks
// the goroutine until the socket is readable (or its read deadline
// expires — deadlines still work through RawConn, which is what keeps
// Shutdown's drain correct on the burst path). Returns the number of
// datagrams received and the socket error, if any.
func (b *burstConn) recv() (int, error) {
	b.n, b.errno = 0, 0
	if err := b.rc.Read(b.recvFn); err != nil {
		return 0, err
	}
	if b.errno != 0 {
		return 0, b.errno
	}
	return int(b.n), nil
}

// recvOnce is recv's RawConn.Read callback: one non-blocking
// recvmmsg, reporting false on EAGAIN so the runtime parks.
func (b *burstConn) recvOnce(fd uintptr) bool {
	for i := 0; i < burstSize; i++ {
		// The kernel writes Namelen and n per message; reset both so a
		// shorter peer address from the previous burst can't leak into
		// this one.
		b.recvHdrs[i].hdr.Namelen = syscall.SizeofSockaddrAny
		b.recvHdrs[i].n = 0
	}
	b.n, _, b.errno = syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&b.recvHdrs[0])), burstSize,
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	return b.errno != syscall.EAGAIN
}

// send pushes out gathered replies with sendmmsg, resuming from the
// partial-send offset until all out datagrams are written. UDP send
// buffers can fill under burst load; the Write callback parks on
// EAGAIN just like recv.
func (b *burstConn) send(out int) error {
	b.sent, b.out = 0, out
	for b.sent < b.out {
		b.n, b.errno = 0, 0
		if err := b.rc.Write(b.sendFn); err != nil {
			return err
		}
		if b.errno != 0 {
			return b.errno
		}
		b.sent += int(b.n)
	}
	return nil
}

// sendOnce is send's RawConn.Write callback: one non-blocking
// sendmmsg of slots [sent, out), reporting false on EAGAIN.
func (b *burstConn) sendOnce(fd uintptr) bool {
	b.n, _, b.errno = syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&b.sendHdrs[b.sent])), uintptr(b.out-b.sent),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	return b.errno != syscall.EAGAIN
}

// dispatchAll resolves one received burst: pin the serving views
// once, dispatch every datagram, pack the replies (and their echoed
// peer sockaddrs) into the send slots, release the pins. Malformed
// datagrams produce no reply slot. Returns the number of replies
// packed. Split from serveBurst so the zero-allocation test can drive
// it without sockets. Telemetry cost per burst: one clock read pair
// plus four atomic adds (burst-size and service-time histograms),
// amortized across up to burstSize datagrams.
func (s *Server) dispatchAll(b *burstConn, got int, sc *scratch, st *workerStats) int {
	start := time.Now()
	p := s.pinEngines()
	out := 0
	for i := 0; i < got; i++ {
		respLen, count := dispatch(p.l, p.l6, s.vrfs, b.reqs[i][:b.recvHdrs[i].n], b.resps[i][:], sc)
		st.count(respLen, count)
		if respLen == 0 {
			continue
		}
		b.sendIovs[out].Base = &b.resps[i][0]
		b.sendIovs[out].SetLen(respLen)
		sh := &b.sendHdrs[out].hdr
		sh.Name = (*byte)(unsafe.Pointer(&b.names[i]))
		sh.Namelen = b.recvHdrs[i].hdr.Namelen
		out++
	}
	p.release()
	if got > 0 {
		st.burst.Observe(uint64(got))
		st.svc.Observe(uint64(time.Since(start)))
	}
	return out
}

// serveBurst is the Linux serve loop: one recvmmsg, one view pin, up
// to burstSize dispatches, one sendmmsg.
func (s *Server) serveBurst(b *burstConn, st *workerStats) {
	sc := new(scratch)
	for {
		got, err := b.recv()
		if err != nil {
			if s.closed.Load() {
				return
			}
			st.errors.Inc()
			continue
		}
		out := s.dispatchAll(b, got, sc, st)
		if out == 0 {
			continue
		}
		if err := b.send(out); err != nil {
			if s.closed.Load() {
				return
			}
			st.errors.Inc()
		}
	}
}
