package main

import (
	"fmt"

	"repro/internal/exp"
	"repro/noc"
	"repro/perfbench/report"
)

// The sweep-cold workload is `figures -exp fig10,fig13 -quick -j 2`.
var sweepIDs = []string{"fig10", "fig13"}

const sweepJobs = 2

// quickCycles mirrors the harness's -quick budget: warmup and measured
// cycles per point (exp.Options.budget). The traced run cross-checks it
// against the harness's own point count, so a budget change fails loudly
// instead of skewing sim_cycles_per_s.
const quickCycles = 40_000

// runSweep makes cmd/figures' calls in cmd/figures' order.
func runSweep(rep *report.Report, t *tracer, cacheDir string) error {
	var err error
	t.span("setup", func() {
		t.span("noc.SetExperimentParallelism", func() { noc.SetExperimentParallelism(sweepJobs) })
		t.span("noc.EnableRunCache", func() { err = noc.EnableRunCache(cacheDir, 0) })
		if err == nil {
			t.span("noc.EnableTraceStore", func() { err = noc.EnableTraceStore(cacheDir, 0) })
		}
	})
	if err != nil {
		// cmd/figures would carry on uncached: a different program.
		return fmt.Errorf("liveness: %w", err)
	}
	if markSetupEnd(rep) {
		return nil
	}
	o := noc.ExperimentOptions{Quick: true, Seed: rep.Seed}
	var rendered []string
	t.span("noc.RunExperiments", func() { rendered, err = noc.RunExperiments(sweepIDs, o, false) })
	if err != nil {
		return err
	}
	for i, id := range sweepIDs {
		rep.Outputs = append(rep.Outputs, report.Output{Name: id, Text: rendered[i]})
	}

	rc, ts := noc.RunCacheStats(), noc.TraceStoreStats()
	warm := exp.WarmupCyclesExecuted()
	// Every simulated point writes one result entry and every simulated
	// shared warmup one checkpoint entry.
	points := rc.Puts - warm/quickCycles
	saved := points*quickCycles - warm
	rep.SimCycles = warm + points*quickCycles
	putCacheCounters(rep, rc, ts)
	rep.Counters["exp.warmup_cycles"] = float64(warm)
	rep.Counters["exp.warmup_cycles_saved"] = float64(saved)
	rep.Counters["exp.points"] = float64(points)
	check(rep, "liveness: run-cache puts > 0", rc.Puts > 0, "%d puts", rc.Puts)
	check(rep, "liveness: exp.warmup_cycles_saved > 0", saved > 0, "%d saved", saved)

	if t.on {
		var entries []noc.CachePrefetchEntry
		t.span("noc.PrefetchExperiments", func() { entries, err = noc.PrefetchExperiments(sweepIDs, o) })
		if err != nil {
			return err
		}
		var results, hits int64
		for _, e := range entries {
			if e.Kind == "result" {
				results++
				if e.Hit {
					hits++
				}
			}
		}
		check(rep, "exp.points matches the harness's result keys", results == points && hits == results,
			"%d result keys (%d cached), %d points derived with %d-cycle budgets", results, hits, points, quickCycles)
	}
	return nil
}

func putCacheCounters(rep *report.Report, rc, ts noc.CacheStats) {
	rep.Counters["runcache.puts"] = float64(rc.Puts)
	rep.Counters["runcache.bytes_written"] = float64(rc.BytesWritten)
	rep.Counters["tracestore.puts"] = float64(ts.Puts)
	rep.Counters["tracestore.bytes_written"] = float64(ts.BytesWritten)
}
