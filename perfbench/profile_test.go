package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
)

func TestFoldRow(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/router.(*Router).Tick", "repro/internal/network.(*Network).Step"}, "router"},
		{[]string{"math.Exp", "repro/internal/power.(*Meter).AvgPowerW", "main.main"}, "power"},
		{[]string{"sort.Slice", "internal/reflectlite.Swapper", "repro/internal/traffic/tracestore.Open"}, "tracestore"},
		{[]string{"runtime.mallocgc", "repro/internal/network.(*Network).Inject"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "repro/internal/exp.run"}, "runtime"},
		{[]string{"repro/internal/exp.(*sfCache[go.shape.string,*repro/internal/traffic.Trace]).do"}, "exp"},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, "other"},
		{nil, "other"},
	} {
		if got := foldRow(c.stack); got != c.want {
			t.Errorf("foldRow(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var sink float64

// TestSelfTimeReadsARealProfile decodes a CPU profile written by
// runtime/pprof and checks that its samples add up.
func TestSelfTimeReadsARealProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	// A fixed amount of work, so that a busy host delays the samples
	// instead of thinning them.
	for i := 0; i < 300_000_000; i++ {
		sink += math.Sqrt(float64(i))
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rows, total, err := selfTime(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range rows {
		sum += v
	}
	if total <= 0 || sum != total {
		t.Fatalf("rows sum to %v of total %v: %v", sum, total, rows)
	}
	// The busy loop lives in this test's own package. (Under the race
	// detector most of its time is spent in instrumentation, so only its
	// presence is asserted.)
	if rows["perfbench"] <= 0 {
		t.Errorf("busy loop not folded to its package: %v", rows)
	}
}
