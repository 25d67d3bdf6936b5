package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/ip6"
	"fibcomp/internal/shardfib"
	"fibcomp/internal/trie"
)

// encodedInputs is everything a run hands to fibserve or checks
// replies against, as bytes.
func encodedInputs(t *testing.T, in *inputs) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	f, err := in.write(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{"req": in.stream.req, "resp": in.stream.resp}
	for _, p := range append([]string{f.v4, f.v6}, f.tenants...) {
		if p == "" {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = b
	}
	plan, err := planFeed(in.feed, churnFeed)
	if err != nil {
		t.Fatal(err)
	}
	out["feed"] = plan.data
	alt, err := json.Marshal(in.stream.alt)
	if err != nil {
		t.Fatal(err)
	}
	out["alt"] = alt
	return out
}

func TestInputsAreByteIdenticalPerSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			gen := func(seed int64) map[string][]byte {
				in, err := makeInputs(w, seed, 1)
				if err != nil {
					t.Fatal(err)
				}
				return encodedInputs(t, in)
			}
			a, b, c := gen(7), gen(7), gen(8)
			if !reflect.DeepEqual(a, b) {
				for k := range a {
					if !bytes.Equal(a[k], b[k]) {
						t.Errorf("%s differs between two runs with seed 7", k)
					}
				}
			}
			if bytes.Equal(a["req"], c["req"]) {
				t.Errorf("seeds 7 and 8 give the same traffic")
			}
		})
	}
}

// tamperEcho answers each datagram with the stream's expected reply,
// except that datagram bad gets its first label's low byte flipped.
func tamperEcho(t *testing.T, s *stream, bad int) *net.UDPConn {
	t.Helper()
	echo, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		echo.Close()
		<-done
	})
	go func() {
		defer close(done)
		buf := make([]byte, 64<<10)
		for d := 0; ; d = (d + 1) % s.n() {
			_, peer, err := echo.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			reply := append([]byte(nil), s.reply(d)...)
			if d == bad {
				reply[len(reply)%4+3] ^= 1
			}
			if _, err := echo.WriteToUDPAddrPort(reply, peer); err != nil {
				return
			}
		}
	}()
	return echo
}

func smallInputs() (*fib.Table, *ip6.Table) {
	t4 := fib.MustParse("0.0.0.0/0 1", "10.0.0.0/8 2", "10.1.0.0/16 3", "192.168.0.0/16 4")
	t6 := ip6.MustParse("2000::/3 1", "2001:db8::/32 5")
	return t4, t6
}

func TestOracleCountsWrongLabel(t *testing.T) {
	t4, t6 := smallInputs()
	o4, o6 := trie.FromTable(t4), ip6.FromTable(t6)
	keys4 := []uint32{0x0a010203, 0x0a7f0001, 0xc0a80101, 0x08080808, 0x0a010000, 0x01020304, 0xc0a8ffff, 0x0b000001}
	keys6 := make([]ip6.Addr, len(keys4))
	want6 := make([]uint32, len(keys4))
	for i := range keys6 {
		keys6[i] = ip6.Addr{Hi: 0x20010db800000000 | uint64(i), Lo: uint64(i)}
		want6[i] = o6.Lookup(keys6[i])
	}
	want4 := lookupAll4(o4, keys4)
	streams := map[string]*stream{
		"legacy": legacyStream(keys4, want4, 2),
		"dual":   dualStream(keys4, want4, keys6, want6, 2),
		"vrf":    vrfStream(keys4, want4, 2, []uint16{1, 2}),
	}
	for name, s := range streams {
		t.Run(name, func(t *testing.T) {
			const bad = 3
			echo := tamperEcho(t, s, bad)
			conn, err := net.DialUDP("udp", nil, echo.LocalAddr().(*net.UDPAddr))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			l, err := newLoop(conn, s, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.run(time.Minute, int64(s.n()), false); err != nil {
				t.Fatal(err)
			}
			if l.datagrams != int64(s.n()) || l.failed != 1 {
				t.Fatalf("%d datagrams, %d failed; want %d datagrams, 1 failed", l.datagrams, l.failed, s.n())
			}
		})
	}
}

func TestCheckAcceptsOnlyReplayedLabels(t *testing.T) {
	s := legacyStream([]uint32{1, 2}, []uint32{7, 8}, 1)
	s.alt = map[uint64][]uint32{1 << 8: {9}}
	reply := func(l uint32) []byte { return binary.BigEndian.AppendUint32(nil, l) }
	for _, c := range []struct {
		d    int
		got  []byte
		want bool
	}{
		{0, reply(7), true},
		{0, reply(9), false}, // 9 is an alternative for datagram 1 only
		{1, reply(9), true},
		{1, reply(10), false},
		{1, append(reply(8), 0), false},
	} {
		if ok := s.check(c.d, c.got); ok != c.want {
			t.Errorf("check(%d, % x) = %v, want %v", c.d, c.got, ok, c.want)
		}
	}
}

func TestGeneratorAllocatesNothing(t *testing.T) {
	t4, _ := smallInputs()
	keys := []uint32{0x0a010203, 0x0a7f0001, 0xc0a80101, 0x08080808}
	s := legacyStream(keys, lookupAll4(trie.FromTable(t4), keys), 1)
	allocs, err := selfCheck(s, 4, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if allocs >= 0.01 {
		t.Fatalf("generator allocates %.3f objects per datagram", allocs)
	}
}

// TestResidentKBMatchesStatusz builds fibserve, serves a dual-stack
// default table plus two VRF tenants, and checks resident_kb against
// the /statusz document read independently, and the default table's
// bytes against the engine fibserve builds.
func TestResidentKBMatchesStatusz(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs fibserve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fibserve")
	if out, err := exec.Command("go", "build", "-o", bin, "fibcomp/cmd/fibserve").CombinedOutput(); err != nil {
		t.Fatalf("go build fibserve: %v\n%s", err, out)
	}
	t4, t6 := smallInputs()
	in := &inputs{v4: t4, v6: t6}
	for id := uint16(1); id <= 2; id++ {
		tt := &fib.Table{Entries: append([]fib.Entry(nil), t4.Entries...)}
		if err := tt.Add(0xac100000, 12, uint32(id)+10); err != nil {
			t.Fatal(err)
		}
		in.tenants = append(in.tenants, tenantTable{id: id, t: tt})
	}
	f, err := in.write(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := newReaper()
	defer r.stopAll()
	args := func(udp, updates, admin string) []string { return in.serverArgs(f, udp, updates, admin) }
	srv, err := startServer(r, placement{}, bin, args, serverEnv(), filepath.Join(dir, "fibserve.log"))
	if err != nil {
		t.Fatal(err)
	}
	req := encode4(nil, []uint32{0x0a010203})
	if _, err := srv.waitReady(req, binary.BigEndian.AppendUint32(nil, 3), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.waitAdmin(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st, err := srv.statusz()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.admin + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	field := func(sec, key string) float64 {
		var m map[string]any
		if err := json.Unmarshal(doc[sec], &m); err != nil {
			t.Fatalf("/statusz %s: %v", sec, err)
		}
		v, ok := m[key].(float64)
		if !ok {
			t.Fatalf("/statusz has no %s.%s", sec, key)
		}
		return v
	}
	sum := field("serving", "size_bytes") + field("serving6", "size_bytes") +
		field("vrfs", "shared_bytes") + field("vrfs", "unique_bytes")
	if got := st.residentKB(); got != sum/1024 {
		t.Errorf("resident_kb %v, /statusz sums to %v KB", got, sum/1024)
	}
	eng, err := shardfib.BuildFormat(t4, lambda4, shards, shardfib.FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	if got := field("serving", "size_bytes"); got != float64(eng.SizeBytes()) {
		t.Errorf("/statusz serving.size_bytes %v, the engine fibserve builds has %d", got, eng.SizeBytes())
	}
}
