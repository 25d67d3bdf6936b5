package main

import (
	"bytes"
	"encoding/binary"
	"slices"

	"fibcomp/internal/ip6"
	"fibcomp/internal/lookupd"
)

// stream is a workload's lookup traffic, encoded once before timing:
// every request datagram and the exact reply the oracle expects for
// it. The generator cycles through the datagrams in order, so no
// datagram is built, and no key reused, until the whole stream has
// gone out.
type stream struct {
	req, resp       []byte
	reqOff, respOff []int32 // datagram d spans [off[d], off[d+1])

	// alt holds, for addresses whose route the update feed changes,
	// the other labels a reply may legally carry while the feed runs:
	// every label the address takes in the offline replay. Keyed by
	// datagram<<8 | slot; nil on read-only workloads.
	alt map[uint64][]uint32
}

func newStream() *stream {
	return &stream{reqOff: []int32{0}, respOff: []int32{0}}
}

// n reports the number of datagrams in one cycle of the stream.
func (s *stream) n() int { return len(s.reqOff) - 1 }

func (s *stream) request(d int) []byte { return s.req[s.reqOff[d]:s.reqOff[d+1]] }

func (s *stream) reply(d int) []byte { return s.resp[s.respOff[d]:s.respOff[d+1]] }

// addrs reports how many addresses datagram d carries. Reply lengths
// are 4n (legacy), 1+4n (AF-tagged) or 3+4n (VRF-tagged), so n is the
// reply length over four in every framing.
func (s *stream) addrs(d int) int { return int(s.respOff[d+1]-s.respOff[d]) / 4 }

// add appends one datagram: its header bytes (none for legacy, the AF
// byte, or the 3-byte VRF header), its encoded addresses, and the
// expected labels. The reply echoes the header.
func (s *stream) add(hdr, addrs []byte, labels []uint32) {
	s.req = append(append(s.req, hdr...), addrs...)
	s.resp = append(s.resp, hdr...)
	for _, l := range labels {
		s.resp = binary.BigEndian.AppendUint32(s.resp, l)
	}
	s.reqOff = append(s.reqOff, int32(len(s.req)))
	s.respOff = append(s.respOff, int32(len(s.resp)))
}

// check reports whether got is a correct reply to datagram d: the
// expected bytes exactly, or — under a running update feed — the
// expected header with every label either the base label or one the
// address takes somewhere in the feed's replay.
func (s *stream) check(d int, got []byte) bool {
	want := s.reply(d)
	if bytes.Equal(got, want) {
		return true
	}
	if len(got) != len(want) || s.alt == nil {
		return false
	}
	hdr := len(want) % 4
	if !bytes.Equal(got[:hdr], want[:hdr]) {
		return false
	}
	for j := 0; j < len(want)/4; j++ {
		g := binary.BigEndian.Uint32(got[hdr+4*j:])
		if g == binary.BigEndian.Uint32(want[hdr+4*j:]) {
			continue
		}
		if !slices.Contains(s.alt[uint64(d)<<8|uint64(j)], g) {
			return false
		}
	}
	return true
}

// The three framings the workloads send (see package lookupd).

func encode4(dst []byte, addrs []uint32) []byte {
	for _, a := range addrs {
		dst = binary.BigEndian.AppendUint32(dst, a)
	}
	return dst
}

func encode6(dst []byte, addrs []ip6.Addr) []byte {
	for _, a := range addrs {
		dst = binary.BigEndian.AppendUint64(dst, a.Hi)
		dst = binary.BigEndian.AppendUint64(dst, a.Lo)
	}
	return dst
}

// legacyStream sends batch untagged IPv4 addresses per datagram.
func legacyStream(keys, want []uint32, batch int) *stream {
	s := newStream()
	var buf []byte
	for i := 0; i+batch <= len(keys); i += batch {
		buf = encode4(buf[:0], keys[i:i+batch])
		s.add(nil, buf, want[i:i+batch])
	}
	return s
}

// dualStream alternates a legacy IPv4 datagram and an AF-tagged IPv6
// datagram, batch addresses each.
func dualStream(keys4, want4 []uint32, keys6 []ip6.Addr, want6 []uint32, batch int) *stream {
	s := newStream()
	var buf []byte
	af6 := []byte{lookupd.AFInet6}
	for i := 0; i+batch <= len(keys4) && i+batch <= len(keys6); i += batch {
		buf = encode4(buf[:0], keys4[i:i+batch])
		s.add(nil, buf, want4[i:i+batch])
		buf = encode6(buf[:0], keys6[i:i+batch])
		s.add(af6, buf, want6[i:i+batch])
	}
	return s
}

// vrfStream sends batch VRF-tagged IPv4 addresses per datagram, the
// tenant rotating over ids datagram by datagram.
func vrfStream(keys, want []uint32, batch int, ids []uint16) *stream {
	s := newStream()
	var buf []byte
	for i, d := 0, 0; i+batch <= len(keys); i, d = i+batch, d+1 {
		id := ids[d%len(ids)]
		hdr := []byte{lookupd.VRFInet, byte(id >> 8), byte(id)}
		buf = encode4(buf[:0], keys[i:i+batch])
		s.add(hdr, buf, want[i:i+batch])
	}
	return s
}
