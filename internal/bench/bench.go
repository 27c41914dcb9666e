// Package bench exports the end-to-end simulation benchmarks shared by the
// `go test -bench` wrappers at the repo root and cmd/benchjson, which runs
// them programmatically (via testing.Benchmark) to write the committed
// BENCH_pr4.json trajectory. Benchmarks defined in _test files cannot be
// imported, so the bodies live here.
package bench

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/exp"
	"repro/internal/flow"
	"repro/internal/network"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/traffic/tracestore"
)

// The end-to-end Step benchmarks run the paper's 8x8 platform at two
// operating points of its load sweep: near-idle, where the activity-driven
// core should elide almost every router tick, and past saturation, where
// every router is busy and the active list must cost (almost) nothing.
const (
	LowLoadRate    = 0.05
	SaturationRate = 4.0
)

// Step measures b.N router cycles of the paper's full 8x8 platform under a
// two-level workload at the given aggregate rate. The workload is captured
// as an arrival trace before the timer starts and replayed during the timed
// region, so the benchmark measures the network datapath — the saturation
// sweep's steady state, where experiment runs share memoized traces — not
// workload generation. It reports two extra metrics: cycles/sec
// (router-cycle throughput) and elision-ratio (the fraction of baseline
// router ticks the activity-driven core skipped during the timed region;
// zero when noskip pins the always-tick path).
func Step(b *testing.B, rate float64, noskip bool) {
	cfg := network.NewConfig()
	cfg.NoSkip = noskip
	n, err := network.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := traffic.NewTwoLevelParams(rate)
	m, err := traffic.NewTwoLevel(p, n.Topo)
	if err != nil {
		b.Fatal(err)
	}
	const prime = 5000 // cycles to fill the pipelines before timing
	horizon := sim.Time(prime+int64(b.N)+2) * n.Cfg.RouterPeriod
	n.Launch(traffic.Capture(m, horizon), horizon)
	n.Run(prime)
	before := n.SkipStats()
	b.ReportAllocs()
	b.ResetTimer()
	n.Run(int64(b.N))
	b.StopTimer()
	after := n.SkipStats()
	ticks := after.RouterTicks - before.RouterTicks
	elided := after.RouterTicksElided - before.RouterTicksElided
	if total := ticks + elided; total > 0 {
		b.ReportMetric(float64(elided)/float64(total), "elision-ratio")
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "cycles/sec")
	}
}

// FiguresRunAll measures a full experiment-harness regeneration (the fig10
// latency/power sweep) against the persistent run cache, on the tiny test
// budget so iterations stay sub-second. With warmCache the store is
// pre-populated and every iteration replays disk entries; without it each
// iteration runs under a fresh cache generation so every point misses and
// simulates. The in-memory memo is reset outside the timed region either
// way, so the pair isolates disk-replay versus simulate cost — the
// cold-to-warm ratio is the headline number of the result cache.
func FiguresRunAll(b *testing.B, warmCache bool) {
	dir, err := os.MkdirTemp("", "runcache-bench-")
	if err != nil {
		b.Fatal(err)
	}
	exp.SetTinyBudget(true)
	exp.ResetCaches()
	defer func() {
		exp.SetDiskCache(nil)
		exp.SetTinyBudget(false)
		exp.ResetCaches()
		os.RemoveAll(dir)
	}()
	ids := []string{"fig10"}
	o := exp.Options{Quick: true}
	open := func(fingerprint string) {
		s, err := runcache.Open(dir, runcache.Options{Fingerprint: fingerprint})
		if err != nil {
			b.Fatal(err)
		}
		exp.SetDiskCache(s)
	}
	if warmCache {
		open("bench-warm")
		if _, err := exp.RunAll(ids, o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		exp.ResetCaches()
		if !warmCache {
			// A fresh fingerprint generation guarantees cold misses without
			// clearing the directory inside the timed region.
			open(fmt.Sprintf("bench-gen-%d", i))
		}
		b.StartTimer()
		if _, err := exp.RunAll(ids, o); err != nil {
			b.Fatal(err)
		}
	}
}

// Sweep measures one multi-policy threshold sweep — the fig13 grid, 3
// rates x 6 Table 2 settings on the tiny budget — with warmup
// checkpointing on or off. Checkpointed, the six settings at each rate
// fork one shared policy-frozen warmup; straight, every point pays for
// its own. The pair's ratio is the headline number of the checkpoint
// subsystem; warmup-cycles/op meters the work actually avoided.
func Sweep(b *testing.B, noCheckpoint bool) {
	exp.SetTinyBudget(true)
	defer func() {
		exp.SetTinyBudget(false)
		exp.ResetCaches()
	}()
	o := exp.Options{Quick: true, NoCheckpoint: noCheckpoint}
	b.ReportAllocs()
	b.ResetTimer()
	warmBefore := exp.WarmupCyclesExecuted()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		exp.ResetCaches() // every iteration re-simulates the whole grid
		b.StartTimer()
		if _, err := exp.RunAll([]string{"fig13"}, o); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(exp.WarmupCyclesExecuted()-warmBefore)/float64(b.N), "warmup-cycles/op")
}

// traceBenchHorizon is the capture window of the trace codec benchmarks:
// long enough for a few tens of thousands of arrivals at the default 8x8
// two-level workload, short enough that one capture stays well under a
// second.
const traceBenchHorizon = 20 * sim.Microsecond

// TraceCaptureCold measures what a point pays without the trace store:
// constructing the two-level workload model and capturing its arrival
// sequence by running it through a scheduler. The captured trace is
// encoded incrementally as it records, so the cost includes the codec's
// write side.
func TraceCaptureCold(b *testing.B) {
	topo := topology.NewMesh2D(8)
	p := traffic.NewTwoLevelParams(1.0)
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		m, err := traffic.NewTwoLevel(p, topo)
		if err != nil {
			b.Fatal(err)
		}
		n = traffic.Capture(m, traceBenchHorizon).Len()
	}
	if n == 0 {
		b.Fatal("capture recorded no arrivals")
	}
	b.ReportMetric(float64(n), "arrivals")
}

// TraceDecodeWarm measures the replacement: decoding the same workload's
// stored encoding (checksum, structural validation, cross-block time-order
// check — the full path Store.Load takes) and replaying every arrival
// through a scheduler. The ratio against TraceCaptureCold is the headline
// number of the trace store (trace_store_speedup_x in BENCH_pr9.json).
func TraceDecodeWarm(b *testing.B) {
	topo := topology.NewMesh2D(8)
	m, err := traffic.NewTwoLevel(traffic.NewTwoLevelParams(1.0), topo)
	if err != nil {
		b.Fatal(err)
	}
	tr := traffic.Capture(m, traceBenchHorizon)
	raw := tr.Encoded().Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := tracestore.Decode(raw)
		if err != nil {
			b.Fatal(err)
		}
		if err := enc.Validate(); err != nil {
			b.Fatal(err)
		}
		var sched sim.Scheduler
		got := 0
		traffic.FromEncoded(enc).Launch(&sched, traceBenchHorizon, func(int, int, sim.Time, int64) { got++ })
		sched.RunUntil(traceBenchHorizon)
		if got != tr.Len() {
			b.Fatalf("replayed %d of %d arrivals", got, tr.Len())
		}
	}
	b.ReportMetric(float64(tr.Len()), "arrivals")
}

// StoreOpenIndexed measures runcache.Open against a directory of entries
// whose index sidecar is valid: the open reads one sidecar file regardless
// of entry count — zero per-entry stats — where the pre-index scan walked
// every entry. The committed row runs at 1000 entries; the benchmark fails
// rather than silently measuring the fallback scan.
func StoreOpenIndexed(b *testing.B, entries int) {
	dir, err := os.MkdirTemp("", "runcache-open-bench-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	opts := runcache.Options{Fingerprint: "open-bench"}
	s, err := runcache.Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	for i := 0; i < entries; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := runcache.Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !h.IndexLoaded() {
			b.Fatal("index sidecar not trusted; this would measure the directory scan")
		}
	}
}

// AllocRegressed classifies an allocs/op change against a baseline: a
// benchmark regresses when it allocates at all from a zero baseline (the
// zero is load-bearing and the ratio is undefined) or grows beyond the
// fractional threshold from a nonzero one. An unchanged count — including
// 0 -> 0, which is steady-state for the zero-alloc datapath benchmarks —
// is never a regression.
func AllocRegressed(base, now int64, threshold float64) bool {
	if now == base {
		return false
	}
	if base == 0 {
		return now > 0
	}
	return float64(now-base)/float64(base) > threshold
}

// SchedulerPushPop measures the steady-state cost of one schedule+dispatch
// pair with ~1k events pending — the simulation kernel's hot path. Mirrors
// the benchmark in internal/sim.
func SchedulerPushPop(b *testing.B) {
	var s sim.Scheduler
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.At(sim.Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+sim.Time(i%64)+1, fn)
		s.Step()
	}
}

// PacketAlloc measures packet + flit-train construction, the allocation hot
// path of packet injection. Mirrors the benchmark in internal/flow.
func PacketAlloc(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := flow.NewPacket(int64(i), 0, 1, 0, -1)
		_ = flow.NewPacketFlits(p)
	}
}
