// Command worker is one timed benchmark run: a fresh process that calls
// the same public noc functions, in the same order, as cmd/figures or
// cmd/netsim, against its own empty run-cache and trace-store directory.
// It writes the command's output, its checks and (when traced) spans,
// counters and a CPU profile into -dir as report.json and cpu.pprof.
//
// perfbench builds and runs it; see ../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"repro/perfbench/report"
)

// start is the process's own reference instant for span offsets.
var start = time.Now()

func main() {
	var (
		workload  = flag.String("workload", "", "sweep-cold | point-saturated | point-idle")
		seed      = flag.Uint64("seed", 1, "workload seed")
		dir       = flag.String("dir", "", "run directory: cache root and report destination")
		traced    = flag.Bool("trace", false, "record spans, counters and a CPU profile")
		setupOnly = flag.Bool("setup-only", false, "exit when set-up ends (set-up time probe)")
	)
	flag.Parse()
	if *dir == "" {
		fail(fmt.Errorf("-dir is required"))
	}
	rep := &report.Report{Workload: *workload, Seed: *seed, Traced: *traced, SetupOnly: *setupOnly,
		Counters: map[string]float64{}, Stamp: stamp()}
	t := &tracer{on: *traced, runID: fmt.Sprintf("%s/seed%d/pid%d", *workload, *seed, os.Getpid()), cur: -1}
	if *traced {
		f, err := os.Create(filepath.Join(*dir, "cpu.pprof"))
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
	}
	cacheDir := filepath.Join(*dir, "cache")
	var err error
	switch *workload {
	case "sweep-cold":
		err = runSweep(rep, t, cacheDir)
	case "point-saturated":
		err = runPoint(rep, t, cacheDir, pointFlags{rate: 4.0, warmup: 60_000, measure: 150_000})
	case "point-idle":
		err = runPoint(rep, t, cacheDir, pointFlags{rate: 0.05, warmup: 1_000_000, measure: 4_000_000})
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if *traced {
		pprof.StopCPUProfile()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rep.Counters["runtime.alloc_mb"] = float64(ms.TotalAlloc) / (1 << 20)
		rep.Counters["runtime.gc_cycles"] = float64(ms.NumGC)
		rep.Spans = t.spans
	}
	if err != nil {
		fail(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(filepath.Join(*dir, "report.json"), b, 0o644); err != nil {
		fail(err)
	}
}

// markSetupEnd records the first measured cycle's instant; a set-up probe
// stops there.
func markSetupEnd(rep *report.Report) bool {
	rep.SetupEndUnixNs = time.Now().UnixNano()
	return rep.SetupOnly
}

func stamp() report.Stamp {
	s := report.Stamp{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Revision = kv.Value
			case "vcs.modified":
				s.Modified = kv.Value == "true"
			}
		}
	}
	return s
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "worker:", err)
	os.Exit(1)
}

// tracer keeps spans in memory; with tracing off it records nothing.
type tracer struct {
	on    bool
	runID string
	spans []report.Span
	cur   int
}

// span times fn as a child of the innermost open span.
func (t *tracer) span(name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	i := len(t.spans)
	t.spans = append(t.spans, report.Span{Name: name, StartNs: int64(time.Since(start)), Parent: t.cur, RunID: t.runID})
	parent := t.cur
	t.cur = i
	fn()
	t.cur = parent
	t.spans[i].EndNs = int64(time.Since(start))
}

func check(rep *report.Report, name string, ok bool, detail string, args ...any) {
	rep.Checks = append(rep.Checks, report.Check{Name: name, OK: ok, Detail: fmt.Sprintf(detail, args...)})
}
