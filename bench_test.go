// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact, on the quick cycle budget), the ablation
// studies from DESIGN.md, and micro-benchmarks of each substrate.
//
// Macro benchmarks use a fresh seed per iteration so the experiment
// harness's memoization cannot shortcut repeated iterations; flagship
// benchmarks attach the reproduced headline metrics via b.ReportMetric.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/flow"
	"repro/internal/link"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/traffic/tracestore"
)

// benchExp runs one experiment per iteration with per-iteration seeds.
func benchExp(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(id, exp.Options{Quick: true, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact -----------------------------------

func BenchmarkFig03LinkUtilization(b *testing.B)     { benchExp(b, "fig3") }
func BenchmarkFig04BufferUtilization(b *testing.B)   { benchExp(b, "fig4") }
func BenchmarkFig05BufferAge(b *testing.B)           { benchExp(b, "fig5") }
func BenchmarkFig07PowerBreakdown(b *testing.B)      { benchExp(b, "fig7") }
func BenchmarkFig08SpatialVariance(b *testing.B)     { benchExp(b, "fig8") }
func BenchmarkFig09TemporalVariance(b *testing.B)    { benchExp(b, "fig9") }
func BenchmarkFig12Congestion(b *testing.B)          { benchExp(b, "fig12") }
func BenchmarkFig13ThresholdLatency(b *testing.B)    { benchExp(b, "fig13") }
func BenchmarkFig14ThresholdPower(b *testing.B)      { benchExp(b, "fig14") }
func BenchmarkFig15ParetoCurve(b *testing.B)         { benchExp(b, "fig15") }
func BenchmarkFig16VoltageTransition(b *testing.B)   { benchExp(b, "fig16") }
func BenchmarkFig17FrequencyTransition(b *testing.B) { benchExp(b, "fig17") }
func BenchmarkTable1Parameters(b *testing.B)         { benchExp(b, "tab1") }
func BenchmarkTable2Thresholds(b *testing.B)         { benchExp(b, "tab2") }

// BenchmarkFig10DVS100Tasks regenerates the headline figure and reports
// the reproduced metrics of its central operating point.
func BenchmarkFig10DVS100Tasks(b *testing.B) {
	var last network.Results
	for i := 0; i < b.N; i++ {
		o := exp.Options{Quick: true, Seed: uint64(i + 1)}
		if _, err := exp.Run("fig10", o); err != nil {
			b.Fatal(err)
		}
		last = exp.Point(2.0, network.PolicyHistory, o)
	}
	b.ReportMetric(last.SavingsX, "savingsX")
	b.ReportMetric(last.MeanLatency, "latency-cycles")
}

func BenchmarkFig11DVS50Tasks(b *testing.B) { benchExp(b, "fig11") }

// BenchmarkHeadlineSavings reproduces the abstract's comparison table.
func BenchmarkHeadlineSavings(b *testing.B) {
	var maxSav float64
	for i := 0; i < b.N; i++ {
		o := exp.Options{Quick: true, Seed: uint64(i + 1)}
		if _, err := exp.Run("headline", o); err != nil {
			b.Fatal(err)
		}
		if s := exp.Point(0.5, network.PolicyHistory, o).SavingsX; s > maxSav {
			maxSav = s
		}
	}
	b.ReportMetric(maxSav, "max-savingsX")
}

// --- Ablation benches (design choices DESIGN.md calls out) --------------

func BenchmarkAblationNoBufferLitmus(b *testing.B)     { benchExp(b, "abl-litmus") }
func BenchmarkAblationWindowSize(b *testing.B)         { benchExp(b, "abl-window") }
func BenchmarkAblationWeight(b *testing.B)             { benchExp(b, "abl-weight") }
func BenchmarkAblationAdaptiveThresholds(b *testing.B) { benchExp(b, "abl-adaptive") }
func BenchmarkAblationRouting(b *testing.B)            { benchExp(b, "abl-routing") }
func BenchmarkAblationLevels(b *testing.B)             { benchExp(b, "abl-levels") }
func BenchmarkAblationTopology(b *testing.B)           { benchExp(b, "abl-topology") }
func BenchmarkAblationRouterPower(b *testing.B)        { benchExp(b, "abl-routerpower") }
func BenchmarkSaturationThroughput(b *testing.B)       { benchExp(b, "saturation") }
func BenchmarkOrionCrossCheck(b *testing.B)            { benchExp(b, "orion") }
func BenchmarkNoiseMargin(b *testing.B)                { benchExp(b, "noise") }

// --- Parallel harness benchmarks -----------------------------------------

// benchFigures regenerates a representative artifact pair (the headline
// DVS sweep and a threshold grid — 30 distinct simulation points) from a
// cold cache at a fixed parallelism level.
func benchFigures(b *testing.B, jobs int) {
	b.Helper()
	exp.SetParallelism(jobs)
	defer exp.SetParallelism(0)
	for i := 0; i < b.N; i++ {
		exp.ResetCaches()
		o := exp.Options{Quick: true, Seed: uint64(i + 1)}
		for _, id := range []string{"fig10", "fig13"} {
			if _, err := exp.Run(id, o); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFiguresSequential pins the experiment executor to one worker:
// the pre-parallelism baseline.
func BenchmarkFiguresSequential(b *testing.B) { benchFigures(b, 1) }

// BenchmarkFiguresParallel lets the executor use every core; compare
// against BenchmarkFiguresSequential to see the worker-pool speedup (on a
// multi-core machine it approaches min(GOMAXPROCS, points) before memory
// bandwidth intervenes).
func BenchmarkFiguresParallel(b *testing.B) { benchFigures(b, 0) }

// --- Trace store benchmarks ----------------------------------------------

// traceBenchHorizon is the capture window of the trace codec benchmarks:
// long enough for a few tens of thousands of arrivals at the default 8x8
// two-level workload, short enough that one capture stays well under a
// second.
const traceBenchHorizon = 20 * sim.Microsecond

// BenchmarkTraceCaptureCold measures what a point pays without the trace
// store: constructing the two-level workload model and capturing its
// arrival sequence by running it through a scheduler. The captured trace
// is encoded incrementally as it records, so the cost includes the codec's
// write side.
func BenchmarkTraceCaptureCold(b *testing.B) {
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

// BenchmarkTraceDecodeWarm measures the store-backed replacement: decoding
// the same workload's stored encoding (checksum, structural validation,
// cross-block time-order check — the full path Store.Load takes) and
// replaying every arrival through a scheduler. The ratio against
// BenchmarkTraceCaptureCold is the headline number of the trace store.
func BenchmarkTraceDecodeWarm(b *testing.B) {
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

// --- Activity-driven core benchmarks -------------------------------------

// The Step benchmarks run the paper's 8x8 platform at two operating points
// of its load sweep: near-idle, where the activity-driven core should elide
// almost every router tick, and past saturation, where every router is busy
// and the active list must cost (almost) nothing.
const (
	lowLoadRate    = 0.05
	saturationRate = 4.0
)

// benchStep measures b.N router cycles of the paper's full 8x8 platform
// under a two-level workload at the given aggregate rate. The workload is
// captured as an arrival trace before the timer starts and replayed during
// the timed region, so the benchmark measures the network datapath — the
// saturation sweep's steady state, where experiment runs share memoized
// traces — not workload generation. It reports two extra metrics:
// cycles/sec (router-cycle throughput) and elision-ratio (the fraction of
// baseline router ticks the activity-driven core skipped during the timed
// region; zero when noskip pins the always-tick path).
func benchStep(b *testing.B, rate float64, noskip bool) {
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

// BenchmarkStepLowLoad measures router-cycle throughput at a near-idle
// operating point (rate 0.05), where the activity-driven core elides almost
// every router tick. Compare against BenchmarkStepLowLoadNoSkip for the
// speedup.
func BenchmarkStepLowLoad(b *testing.B) { benchStep(b, lowLoadRate, false) }

// BenchmarkStepLowLoadNoSkip is the same point on the always-tick path.
func BenchmarkStepLowLoadNoSkip(b *testing.B) { benchStep(b, lowLoadRate, true) }

// BenchmarkStepSaturation measures the saturated platform (rate 4.0), where
// the active list is dense and its bookkeeping must cost (almost) nothing.
func BenchmarkStepSaturation(b *testing.B) { benchStep(b, saturationRate, false) }

// BenchmarkStepSaturationNoSkip is the saturated always-tick baseline.
func BenchmarkStepSaturationNoSkip(b *testing.B) { benchStep(b, saturationRate, true) }

// --- Substrate micro-benchmarks ------------------------------------------

// BenchmarkNetworkStep8x8 measures the cost of one router cycle of the
// paper's full 8x8 platform under load.
func BenchmarkNetworkStep8x8(b *testing.B) {
	cfg := network.NewConfig()
	n, err := network.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := traffic.NewTwoLevelParams(1.5)
	m, err := traffic.NewTwoLevel(p, n.Topo)
	if err != nil {
		b.Fatal(err)
	}
	n.Launch(m, sim.Time(1e12))
	n.Run(5000) // prime the pipelines
	b.ResetTimer()
	n.Run(int64(b.N))
}

// BenchmarkRouterTick measures one allocation cycle of a loaded router.
func BenchmarkRouterTick(b *testing.B) {
	cfg := router.NewConfig(5)
	r, err := router.New(0, cfg)
	if err != nil {
		b.Fatal(err)
	}
	r.RouteFn = func(_ *flow.Packet, buf []routing.MaskCandidate) []routing.MaskCandidate {
		return append(buf, routing.MaskCandidate{Port: 2, VCMask: 0b11})
	}
	pkt := flow.NewPacket(1, 0, 1, 0, -1)
	refill := func(now sim.Time) {
		for _, f := range flow.NewPacketFlits(pkt) {
			f.VC = 0
			r.Inputs[1].Arrive(f, now)
		}
	}
	refill(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i) * sim.Nanosecond
		r.Tick(now, sim.Nanosecond)
		if r.Inputs[1].Occupied() == 0 {
			b.StopTimer()
			for _, ov := range []int{0, 1} {
				for r.Outputs[2].OccupiedSlots() > 0 {
					r.Outputs[2].ReturnCredit(ov, now)
				}
			}
			refill(now)
			b.StartTimer()
		}
	}
}

// BenchmarkLinkSend measures flit serialization bookkeeping.
func BenchmarkLinkSend(b *testing.B) {
	table := link.MustTable(link.NewParams())
	var sched sim.Scheduler
	l := link.NewDVSLink(table, &sched, table.Top())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(sim.Time(i) * sim.Nanosecond)
	}
}

// BenchmarkLinkTransition measures a full down-and-up DVS transition pair.
func BenchmarkLinkTransition(b *testing.B) {
	table := link.MustTable(link.NewParams())
	var sched sim.Scheduler
	l := link.NewDVSLink(table, &sched, table.Top())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Walk down the table and bounce back up, one completed
		// transition per iteration.
		l.RequestStep(sched.Now(), l.Level() == 0)
		sched.RunUntil(sched.Now() + 15*sim.Microsecond)
	}
}

// BenchmarkPolicyDecide measures one history window of Algorithm 1.
func BenchmarkPolicyDecide(b *testing.B) {
	h, err := core.NewHistoryDVS(core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Decide(core.Measures{LinkUtil: float64(i%100) / 100, BufUtil: float64(i%50) / 100})
	}
}

// BenchmarkPolicyDecideHW measures the fixed-point hardware model.
func BenchmarkPolicyDecideHW(b *testing.B) {
	h := &core.HWHistoryDVS{P: core.DefaultParams()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Decide(core.Measures{LinkUtil: float64(i%100) / 100, BufUtil: float64(i%50) / 100})
	}
}

// BenchmarkTwoLevelGeneration measures workload generation alone.
func BenchmarkTwoLevelGeneration(b *testing.B) {
	topo := topology.NewMesh2D(8)
	p := traffic.NewTwoLevelParams(1.0)
	m, err := traffic.NewTwoLevel(p, topo)
	if err != nil {
		b.Fatal(err)
	}
	var sched sim.Scheduler
	count := 0
	m.Launch(&sched, sim.Time(1e12), func(int, int, sim.Time, int64) { count++ })
	b.ResetTimer()
	start := sched.Now()
	sched.RunUntil(start + sim.Time(b.N)*sim.Nanosecond)
	if count == 0 {
		b.Fatal("no injections generated")
	}
}

// BenchmarkDORRoute measures one dimension-order route computation.
func BenchmarkDORRoute(b *testing.B) {
	topo := topology.NewMesh2D(8)
	alg := routing.DimensionOrder{}
	st := routing.NewState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Route(topo, i%64, (i+37)%64, 2, st)
	}
}

// BenchmarkAdaptiveRoute measures one minimal-adaptive route computation.
func BenchmarkAdaptiveRoute(b *testing.B) {
	topo := topology.NewMesh2D(8)
	alg := routing.MinimalAdaptive{}
	st := routing.NewState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Route(topo, i%64, (i+37)%64, 2, st)
	}
}
