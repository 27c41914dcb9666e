// Command benchjson runs the repository's benchmark trajectory — the
// end-to-end Step benchmarks at low load and saturation (with the
// activity-driven core on and off), the cold- and warm-cache experiment
// regenerations, the checkpointed and straight
// threshold sweeps, the trace-store capture/decode pair and indexed cache
// open, plus the scheduler and packet-alloc micro-benchmarks — and writes
// the results as machine-readable JSON.
//
//	benchjson -out BENCH_pr10.json
//	benchjson -baseline BENCH_pr9.json                      # run, then diff
//	benchjson -in BENCH_pr10.json -baseline BENCH_pr9.json  # diff two files
//
// The committed BENCH_pr10.json pins this PR's measured curve so future
// changes can diff against it; `make bench-json` regenerates it.
//
// With -baseline, a per-benchmark delta table (ns/op and allocs/op) is
// printed and the exit status is 1 when any benchmark regressed by more
// than 10% — informational on CI (continue-on-error), a hard gate for
// local use. Benchmarks absent from the baseline are listed as "new",
// baseline benchmarks absent from the current run as "gone"; neither
// counts toward the regression exit status.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/bench"
)

// result is one benchmark's measurements.
type result struct {
	Name         string  `json:"name"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	// ElisionRatio is the fraction of baseline router ticks the
	// activity-driven core skipped (the "skip ratio"); only the end-to-end
	// Step benchmarks report it.
	ElisionRatio float64 `json:"elision_ratio,omitempty"`
	// WarmupCyclesPerOp is the warmup work one sweep iteration simulated;
	// only the Sweep benchmarks report it.
	WarmupCyclesPerOp float64 `json:"warmup_cycles_per_op,omitempty"`
}

// report is the file schema.
type report struct {
	Schema  string   `json:"schema"`
	GOOS    string   `json:"goos"`
	GOARCH  string   `json:"goarch"`
	CPUs    int      `json:"cpus"`
	Results []result `json:"results"`
	Summary summary  `json:"summary"`
}

// summary distills the acceptance numbers: how much faster the
// activity-driven core runs the low-load point versus the always-tick
// baseline, and how much it costs at saturation.
type summary struct {
	LowLoadSpeedupX        float64 `json:"low_load_speedup_x"`
	SaturationOverheadFrac float64 `json:"saturation_overhead_frac"`
	// WarmCacheSpeedupX is how much faster a fig10 regeneration replays
	// from the persistent run cache than it simulates cold.
	WarmCacheSpeedupX float64 `json:"warm_cache_speedup_x,omitempty"`
	// CheckpointSpeedupX is how much faster the fig13 threshold sweep runs
	// when policy variants fork one shared warmup instead of each paying
	// for its own.
	CheckpointSpeedupX float64 `json:"checkpoint_speedup_x,omitempty"`
	// TraceStoreSpeedupX is how much faster a workload's arrival sequence
	// decodes and replays from its trace-store encoding than the live
	// model re-captures it.
	TraceStoreSpeedupX float64 `json:"trace_store_speedup_x,omitempty"`
	Note               string  `json:"note,omitempty"`
}

// summaryNote qualifies the speedup figures: the -noskip baseline in this
// binary already carries the datapath optimizations, so the comparison
// understates the end-to-end win over the pre-change tree, and the
// warm-cache ratio is measured on the tiny benchmark budget (real budgets
// widen it, since disk replay cost is budget-independent).
const summaryNote = "low_load_speedup_x compares against -noskip in the same binary; " +
	"warm_cache_speedup_x compares a fig10 regeneration replayed from the persistent " +
	"run cache against a cold simulate on the tiny benchmark budget; " +
	"checkpoint_speedup_x compares the fig13 threshold sweep forking one shared warmup " +
	"against every point warming up itself, also on the tiny budget (real budgets widen " +
	"it, since the shared warmup amortizes over the same six settings at any length); " +
	"trace_store_speedup_x compares decoding and replaying a stored arrival trace " +
	"against re-capturing the same workload from the live two-level model; " +
	"diff against the committed BENCH_pr9.json (benchjson -baseline BENCH_pr9.json) for " +
	"the cross-PR trajectory."

// regressionThreshold is the fractional slowdown (ns/op) or allocation
// growth (allocs/op) above which a benchmark counts as regressed.
const regressionThreshold = 0.10

func measure(name string, fn func(b *testing.B)) result {
	r := testing.Benchmark(fn)
	fmt.Fprintf(os.Stderr, "%-24s %s %s\n", name, r.String(), r.MemString())
	return result{
		Name:              name,
		Iterations:        r.N,
		NsPerOp:           float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:       r.AllocsPerOp(),
		BytesPerOp:        r.AllocedBytesPerOp(),
		CyclesPerSec:      r.Extra["cycles/sec"],
		ElisionRatio:      r.Extra["elision-ratio"],
		WarmupCyclesPerOp: r.Extra["warmup-cycles/op"],
	}
}

func runAll() []result {
	return []result{
		measure("StepLowLoad", func(b *testing.B) { bench.Step(b, bench.LowLoadRate, false) }),
		measure("StepLowLoadNoSkip", func(b *testing.B) { bench.Step(b, bench.LowLoadRate, true) }),
		measure("StepSaturation", func(b *testing.B) { bench.Step(b, bench.SaturationRate, false) }),
		measure("StepSaturationNoSkip", func(b *testing.B) { bench.Step(b, bench.SaturationRate, true) }),
		measure("RunAllColdCache", func(b *testing.B) { bench.FiguresRunAll(b, false) }),
		measure("RunAllWarmCache", func(b *testing.B) { bench.FiguresRunAll(b, true) }),
		measure("SweepStraight", func(b *testing.B) { bench.Sweep(b, true) }),
		measure("SweepCheckpointed", func(b *testing.B) { bench.Sweep(b, false) }),
		measure("TraceCaptureCold", bench.TraceCaptureCold),
		measure("TraceDecodeWarm", bench.TraceDecodeWarm),
		measure("StoreOpenIndexed", func(b *testing.B) { bench.StoreOpenIndexed(b, 1000) }),
		measure("SchedulerPushPop", bench.SchedulerPushPop),
		measure("PacketAlloc", bench.PacketAlloc),
	}
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// diff prints per-benchmark deltas against a baseline report and reports
// whether any benchmark regressed beyond the threshold. Benchmarks absent
// from the baseline are listed as "new", baseline benchmarks missing from
// the current run as "gone"; neither counts as a regression — only a
// benchmark present on both sides can regress.
func diff(base report, cur []result) (regressed bool) {
	byName := map[string]result{}
	for _, r := range base.Results {
		byName[r.Name] = r
	}
	curNames := map[string]bool{}
	for _, r := range cur {
		curNames[r.Name] = true
	}
	added, gone := 0, 0
	fmt.Printf("%-24s %14s %14s %8s %16s %6s\n",
		"benchmark", "base ns/op", "now ns/op", "delta", "allocs/op", "flag")
	for _, now := range cur {
		b, ok := byName[now.Name]
		if !ok {
			added++
			fmt.Printf("%-24s %14s %14.1f %8s %16s %6s\n",
				now.Name, "-", now.NsPerOp, "-", fmt.Sprintf("- -> %d", now.AllocsPerOp), "new")
			continue
		}
		nsPct := 0.0
		if b.NsPerOp > 0 {
			nsPct = (now.NsPerOp - b.NsPerOp) / b.NsPerOp
		}
		// Allocation regressions: classified by bench.AllocRegressed —
		// unchanged counts (including 0 -> 0) never regress, any allocation
		// from a zero baseline does, nonzero baselines use the same
		// fractional threshold as time.
		allocRegressed := bench.AllocRegressed(b.AllocsPerOp, now.AllocsPerOp, regressionThreshold)
		mark := ""
		if nsPct > regressionThreshold || allocRegressed {
			mark = "REGR"
			regressed = true
		} else if nsPct < -regressionThreshold {
			mark = "ok+"
		}
		fmt.Printf("%-24s %14.1f %14.1f %+7.1f%% %16s %6s\n",
			now.Name, b.NsPerOp, now.NsPerOp, 100*nsPct,
			fmt.Sprintf("%d -> %d", b.AllocsPerOp, now.AllocsPerOp), mark)
	}
	// Baseline benchmarks the current run no longer has: renames and
	// removals surface here instead of silently vanishing from the table.
	for _, b := range base.Results {
		if !curNames[b.Name] {
			gone++
			fmt.Printf("%-24s %14.1f %14s %8s %16s %6s\n",
				b.Name, b.NsPerOp, "-", "-", fmt.Sprintf("%d -> -", b.AllocsPerOp), "gone")
		}
	}
	if added > 0 || gone > 0 {
		fmt.Printf("benchmarks: %d new, %d gone (informational, never regressions)\n", added, gone)
	}
	return regressed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(2)
}

func main() {
	out := flag.String("out", "BENCH_pr10.json", "output file (- for stdout)")
	in := flag.String("in", "", "read results from this report instead of running benchmarks")
	baseline := flag.String("baseline", "", "diff results against this report; exit 1 on >10% regression")
	flag.Parse()

	var results []result
	if *in != "" {
		rep, err := readReport(*in)
		if err != nil {
			fatal(err)
		}
		results = rep.Results
	} else {
		results = runAll()
	}

	byName := map[string]result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	rep := report{
		Schema:  "repro-bench/v1",
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Results: results,
	}
	if low, base := byName["StepLowLoad"], byName["StepLowLoadNoSkip"]; low.NsPerOp > 0 {
		rep.Summary.LowLoadSpeedupX = base.NsPerOp / low.NsPerOp
	}
	if sat, base := byName["StepSaturation"], byName["StepSaturationNoSkip"]; base.NsPerOp > 0 {
		rep.Summary.SaturationOverheadFrac = sat.NsPerOp/base.NsPerOp - 1
	}
	if warm, cold := byName["RunAllWarmCache"], byName["RunAllColdCache"]; warm.NsPerOp > 0 {
		rep.Summary.WarmCacheSpeedupX = cold.NsPerOp / warm.NsPerOp
	}
	if ckpt, straight := byName["SweepCheckpointed"], byName["SweepStraight"]; ckpt.NsPerOp > 0 {
		rep.Summary.CheckpointSpeedupX = straight.NsPerOp / ckpt.NsPerOp
	}
	if warm, cold := byName["TraceDecodeWarm"], byName["TraceCaptureCold"]; warm.NsPerOp > 0 {
		rep.Summary.TraceStoreSpeedupX = cold.NsPerOp / warm.NsPerOp
	}
	rep.Summary.Note = summaryNote
	fmt.Fprintf(os.Stderr, "low-load speedup %.2fx, saturation overhead %+.1f%%, warm-cache speedup %.2fx, checkpoint speedup %.2fx, trace-store speedup %.2fx\n",
		rep.Summary.LowLoadSpeedupX, 100*rep.Summary.SaturationOverheadFrac,
		rep.Summary.WarmCacheSpeedupX, rep.Summary.CheckpointSpeedupX,
		rep.Summary.TraceStoreSpeedupX)

	if *in == "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if *out == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
	}

	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			fatal(err)
		}
		if diff(base, results) {
			fmt.Fprintf(os.Stderr, "benchjson: regression beyond %.0f%% against %s\n",
				100*regressionThreshold, *baseline)
			os.Exit(1)
		}
	}
}
