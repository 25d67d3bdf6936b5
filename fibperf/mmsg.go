package main

import (
	"net"
	"syscall"
	"unsafe"
)

// slotSize holds any reply: a VRF-tagged header plus 256 labels.
const slotSize = 2048

// mmsghdr mirrors struct mmsghdr: a msghdr plus the length the kernel
// moved for that message (64-bit layout).
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// batchConn moves a connected UDP socket's datagrams in batches: one
// recvmmsg takes every reply waiting, one sendmmsg sends the requests
// queued with add. The callbacks handed to RawConn are bound once, so
// neither call allocates.
type batchConn struct {
	conn *net.UDPConn
	rc   syscall.RawConn

	rhdr []mmsghdr
	riov []syscall.Iovec
	rbuf []byte // reply slot i is rbuf[i*slotSize:]
	shdr []mmsghdr
	siov []syscall.Iovec

	// The call in progress, shared with the bound callbacks.
	vlen, queued, sent, moved int
	errno                     syscall.Errno
	recvFn, sendFn            func(fd uintptr) bool
}

func newBatchConn(conn *net.UDPConn, slots int) (*batchConn, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &batchConn{
		conn: conn, rc: rc,
		rhdr: make([]mmsghdr, slots), riov: make([]syscall.Iovec, slots), rbuf: make([]byte, slots*slotSize),
		shdr: make([]mmsghdr, slots), siov: make([]syscall.Iovec, slots),
	}
	for i := 0; i < slots; i++ {
		b.riov[i].Base = &b.rbuf[i*slotSize]
		b.riov[i].SetLen(slotSize)
		b.rhdr[i].hdr.Iov, b.rhdr[i].hdr.Iovlen = &b.riov[i], 1
		b.shdr[i].hdr.Iov, b.shdr[i].hdr.Iovlen = &b.siov[i], 1
	}
	b.recvFn, b.sendFn = b.doRecv, b.doSend
	return b, nil
}

// doRecv runs one non-blocking recvmmsg; false (EAGAIN) makes RawConn
// park until the socket is readable or the read deadline passes.
func (b *batchConn) doRecv(fd uintptr) bool {
	n, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd, uintptr(unsafe.Pointer(&b.rhdr[0])), uintptr(b.vlen), syscall.MSG_DONTWAIT, 0, 0)
	if e == syscall.EAGAIN {
		return false
	}
	b.moved, b.errno = int(n), e
	return true
}

func (b *batchConn) doSend(fd uintptr) bool {
	n, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&b.shdr[b.sent])), uintptr(b.queued-b.sent), syscall.MSG_DONTWAIT, 0, 0)
	if e == syscall.EAGAIN {
		return false
	}
	b.moved, b.errno = int(n), e
	return true
}

// recv waits for at least one datagram and takes up to max of those
// waiting; reply(i) is the i-th.
func (b *batchConn) recv(max int) (int, error) {
	b.vlen = min(max, len(b.rhdr))
	if err := b.rc.Read(b.recvFn); err != nil {
		return 0, err
	}
	if b.errno != 0 {
		return 0, b.errno
	}
	return b.moved, nil
}

func (b *batchConn) reply(i int) []byte {
	return b.rbuf[i*slotSize : i*slotSize+int(b.rhdr[i].n)]
}

// add queues one request for the next flush. req must stay untouched
// until then.
func (b *batchConn) add(req []byte) {
	b.siov[b.queued].Base = &req[0]
	b.siov[b.queued].SetLen(len(req))
	b.queued++
}

// flush sends every queued request.
func (b *batchConn) flush() error {
	var err error
	for b.sent = 0; b.sent < b.queued && err == nil; b.sent += b.moved {
		if err = b.rc.Write(b.sendFn); err == nil && b.errno != 0 {
			err = b.errno
		}
	}
	b.queued = 0
	return err
}
