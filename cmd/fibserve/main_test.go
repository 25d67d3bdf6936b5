package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fibcomp/internal/fib"
	"fibcomp/internal/ip6"
	"fibcomp/internal/shardfib"
	"fibcomp/internal/vrftab"
)

// TestReloadIsolation pins SIGHUP's per-table failure isolation: when
// the default v4 table cannot be reloaded (a corrupt file, or a table
// that was read from stdin), the changed -fib6 table and the changed
// tenant still reload, and the default v4 engine keeps its old table.
func TestReloadIsolation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		path    func(dir string) string // the default v4 path at reload time
		wantErr string
	}{
		{"corrupt v4 file", func(dir string) string {
			p := filepath.Join(dir, "t.fib")
			mustWrite(t, p, "10.0.0.0/8 2\nnot a prefix\n")
			return p
		}, "keeping old FIB"},
		{"v4 from stdin", func(string) string { return "" }, "stdin"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			p6 := filepath.Join(dir, "t6.fib")
			pv := filepath.Join(dir, "vrf1.fib")
			t4, err := fib.Read(strings.NewReader("10.0.0.0/8 2\n"))
			if err != nil {
				t.Fatal(err)
			}
			v4, err := shardfib.Build(t4, 11, 4)
			if err != nil {
				t.Fatal(err)
			}
			t6, err := ip6.Read(strings.NewReader("2001:db8::/32 5\n"))
			if err != nil {
				t.Fatal(err)
			}
			v6, err := shardfib.Build6(t6, 16, 4)
			if err != nil {
				t.Fatal(err)
			}
			vreg := vrftab.New(11, 16, 4)
			tv, err := fib.Read(strings.NewReader("192.168.0.0/16 7\n"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := vreg.Add(1, tv, ip6.New()); err != nil {
				t.Fatal(err)
			}

			// Between load and SIGHUP: v6 and the tenant change, the
			// default v4 table becomes unreloadable.
			mustWrite(t, p6, "2001:db8::/32 6\n")
			mustWrite(t, pv, "192.168.0.0/16 8\n")
			counts := map[uint16][2]int{}
			rs := &reloadSet{
				path:   tc.path(dir),
				swap4:  v4.Reload,
				path6:  p6,
				fib6:   v6,
				vreg:   vreg,
				vspecs: []vrfSpec{{id: 1, p4: pv}},
				counted: func(id uint16, n4, n6 int) {
					counts[id] = [2]int{n4, n6}
				},
			}
			var out, errw bytes.Buffer
			rs.reload(&out, &errw)

			if got := v4.Lookup(0x0A010203); got != 2 {
				t.Errorf("default v4 10.1.2.3 = %d, want the old table's 2", got)
			}
			if !strings.Contains(errw.String(), tc.wantErr) {
				t.Errorf("stderr %q does not report the v4 failure (%q)", errw.String(), tc.wantErr)
			}
			a6, err := ip6.ParseAddr("2001:db8::1")
			if err != nil {
				t.Fatal(err)
			}
			if got := v6.Lookup(a6); got != 6 {
				t.Errorf("v6 2001:db8::1 = %d, want the reloaded 6", got)
			}
			tn4, _, ok := vreg.Resolve(1)
			if !ok {
				t.Fatal("tenant 1 vanished")
			}
			if got := tn4.Lookup(0xC0A80101); got != 8 {
				t.Errorf("vrf 1 192.168.1.1 = %d, want the reloaded 8", got)
			}
			if counts[1] != [2]int{1, 0} {
				t.Errorf("tenant counts = %v, want [1 0]", counts[1])
			}
			if !strings.Contains(out.String(), "reloaded 1 IPv6 prefixes") ||
				!strings.Contains(out.String(), "reloaded vrf 1") {
				t.Errorf("stdout %q does not report the v6 and tenant reloads", out.String())
			}
		})
	}
}

func mustWrite(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
