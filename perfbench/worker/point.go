package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/noc"
	"repro/perfbench/report"
)

// pointFlags are the netsim flags a point workload sets; every other flag
// keeps its default.
type pointFlags struct {
	rate            float64
	warmup, measure int64
}

const (
	pointTasks   = 100
	pointTaskDur = time.Millisecond
)

// cachedSummary is cmd/netsim's persistent summary shape; the field names
// are its JSON encoding, so netsim itself replays what the worker stores.
type cachedSummary struct {
	Results  noc.Results
	InFlight int64
}

// runPoint makes cmd/netsim's calls in cmd/netsim's order. Untraced, it
// calls noc.NewWarmedTwoLevel and Network.Measure; traced, it rebuilds
// both from their exported parts so that each step gets its own span.
func runPoint(rep *report.Report, t *tracer, cacheDir string, pf pointFlags) error {
	cfg := noc.DefaultConfig()
	cfg.Seed = rep.Seed
	w := noc.TwoLevelWorkload{Rate: pf.rate, Tasks: pointTasks, TaskDuration: pointTaskDur, Seed: rep.Seed}

	var err error
	var key string
	t.span("setup", func() {
		t.span("noc.EnableRunCache", func() { err = noc.EnableRunCache(cacheDir, 0) })
		if err != nil {
			return
		}
		t.span("noc.EnableTraceStore", func() { err = noc.EnableTraceStore(cacheDir, 0) })
		if err != nil {
			return
		}
		if key, err = summaryKey(cfg, pf, rep.Seed); err != nil {
			return
		}
		var cs cachedSummary
		t.span("noc.RunCacheLookup", func() {
			if noc.RunCacheLookup(key, &cs) {
				err = fmt.Errorf("cold run found a cached summary")
			}
		})
	})
	if err != nil {
		return fmt.Errorf("liveness: %w", err)
	}

	var r noc.Results
	var inFlight int64
	if t.on {
		r, inFlight, err = tracedPoint(rep, t, cfg, w, pf)
		if err != nil || rep.SetupOnly {
			return err
		}
	} else {
		var n *noc.Network
		if n, err = noc.NewWarmedTwoLevel(cfg, w, pf.warmup, pf.measure, true); err != nil {
			return err
		}
		if markSetupEnd(rep) {
			return nil
		}
		before := n.InFlight()
		r = n.Measure(pf.measure)
		inFlight = n.InFlight()
		// Measured deliveries count only packets injected inside the window,
		// so conservation bounds the older packets delivered in it.
		old := before + r.InjectedPackets - r.DeliveredPackets - inFlight
		check(rep, "packet conservation", old >= 0 && old <= before,
			"%d in flight before, %d injected, %d delivered, %d in flight after", before, r.InjectedPackets, r.DeliveredPackets, inFlight)
	}
	t.span("noc.RunCacheStore", func() { noc.RunCacheStore(key, cachedSummary{Results: r, InFlight: inFlight}) })

	rep.Results = &r
	rep.SimCycles = r.Cycles
	rep.Outputs = []report.Output{{Name: "summary", Text: summary(r, inFlight, pf)}}
	rc, ts := noc.RunCacheStats(), noc.TraceStoreStats()
	putCacheCounters(rep, rc, ts)
	rep.Counters["exp.points"] = 1
	check(rep, "liveness: one trace-store put", ts.Puts == 1, "%d puts", ts.Puts)
	return nil
}

// summaryKey is cmd/netsim's run-cache key for a default-flag twolevel run.
func summaryKey(cfg noc.Config, pf pointFlags, seed uint64) (string, error) {
	keyCfg := cfg
	keyCfg.Tiles = 0
	keyCfg.VerifyLookahead = false
	b, err := json.Marshal(keyCfg)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("netsim|cfg=%s|traffic=%s|rate=%g|tasks=%d|taskdur=%d|warmup=%d|cycles=%d|seed=%d",
		b, "twolevel", pf.rate, pointTasks, int64(pointTaskDur), pf.warmup, pf.measure, seed), nil
}

// summary renders cmd/netsim's result block for the point's flags.
func summary(r noc.Results, inFlight int64, pf pointFlags) string {
	cfg := noc.DefaultConfig()
	return fmt.Sprintf("platform   : %dx%d mesh(torus=%v), policy=%s, routing=%s\n", cfg.MeshSize, cfg.MeshSize, cfg.Torus, cfg.Policy, cfg.Routing) +
		fmt.Sprintf("workload   : %s rate=%.2f (tasks=%d, dur=%v)\n", "twolevel", pf.rate, pointTasks, pointTaskDur) +
		fmt.Sprintf("cycles     : %d measured after %d warmup\n", r.Cycles, pf.warmup) +
		fmt.Sprintf("packets    : %d injected, %d delivered, %d in flight\n", r.InjectedPackets, r.DeliveredPackets, inFlight) +
		fmt.Sprintf("latency    : %.1f cycles mean (P50 %.0f, P99 %.0f)\n", r.MeanLatencyCycles, r.P50LatencyCycles, r.P99LatencyCycles) +
		fmt.Sprintf("throughput : %.3f packets/cycle\n", r.ThroughputPkts) +
		fmt.Sprintf("power      : %.1f W avg (%.3f of non-DVS baseline, %.2fX savings)\n", r.AvgPowerW, r.NormalizedPower, r.PowerSavingsX)
}

// tracedPoint is noc.NewWarmedTwoLevel (cold cache, reuse on) followed by
// Network.Measure, one span per exported step. Its results must equal the
// untraced runs' exactly; perfbench checks that.
func tracedPoint(rep *report.Report, t *tracer, c noc.Config, w noc.TwoLevelWorkload, pf pointFlags) (noc.Results, int64, error) {
	var (
		n       *network.Network
		tr      *traffic.Trace
		horizon sim.Time
		snap    *checkpoint.Snapshot
		enc     []byte
		err     error
	)
	t.span("setup", func() {
		var cfg network.Config
		if cfg, err = lower(c); err != nil {
			return
		}
		p := traffic.NewTwoLevelParams(w.Rate)
		p.AvgTasks = w.Tasks
		p.AvgTaskDuration = sim.Time(w.TaskDuration.Nanoseconds()) * sim.Nanosecond
		p.Seed = w.Seed
		horizon = sim.Time(pf.warmup+pf.measure+1) * cfg.RouterPeriod
		t.span("traffic.SharedTwoLevelTrace", func() {
			var reason string
			if tr, reason = traffic.SharedTwoLevelTrace(p, topology.New(cfg.K, cfg.N, cfg.Torus), horizon); tr == nil {
				err = fmt.Errorf("workload not traceable: %s", reason)
			}
		})
		if err != nil {
			return
		}
		var key string
		if key, err = warmedKey(c, w, pf); err != nil {
			return
		}
		t.span("exp.CacheLookupRaw", func() {
			if _, hit := exp.CacheLookupRaw(key); hit {
				err = fmt.Errorf("cold run found a cached warmup")
			}
		})
		if err != nil {
			return
		}
		t.span("network.New", func() { n, err = network.New(cfg) })
		if err != nil {
			return
		}
		t.span("network.Launch", func() { n.Launch(tr, horizon) })
		t.span("network.SetDVSHold", func() { n.SetDVSHold(true) })
		t.span("network.Run(warmup)", func() { n.Run(pf.warmup) })
		t.span("checkpoint.Capture", func() { snap, err = checkpoint.Capture(n) })
		if err != nil {
			return
		}
		t.span("checkpoint.Encode", func() { enc, err = checkpoint.Encode(snap) })
		if err != nil {
			return
		}
		t.span("exp.CacheStoreRaw", func() { exp.CacheStoreRaw(key, enc) })
		t.span("network.SetDVSHold", func() { n.SetDVSHold(false) })
	})
	if err != nil || markSetupEnd(rep) {
		return noc.Results{}, 0, err
	}

	measStart := n.Now()
	var nr network.Results
	t.span("measure", func() {
		t.span("network.BeginMeasurement", n.BeginMeasurement)
		t.span("network.Run(measure)", func() { n.Run(pf.measure) })
		t.span("network.Snapshot", func() { nr = n.Snapshot() })
	})

	// Exact conservation over the window: every packet injected in it was
	// delivered in it or is still in flight.
	st, err := n.CaptureForDiff()
	if err != nil {
		return noc.Results{}, 0, err
	}
	var young int64
	for _, p := range st.Packets {
		if p.Created >= measStart {
			young++
		}
	}
	check(rep, "packet conservation", nr.InjectedPkts == nr.DeliveredPkts+young &&
		int64(len(st.Packets)) == n.InFlight && st.NextPkt-snap.State.NextPkt == nr.InjectedPkts,
		"%d injected = %d delivered + %d in flight (%d live packets, %d in flight overall, %d ids issued)",
		nr.InjectedPkts, nr.DeliveredPkts, young, len(st.Packets), n.InFlight, st.NextPkt-snap.State.NextPkt)

	sk := n.SkipStats()
	var act router.Activity
	for _, r := range n.Routers {
		act.Add(r.ActivitySnapshot())
	}
	var flits, transitions int64
	for _, l := range n.Links() {
		s := l.StatsAt(n.Now())
		flits += s.FlitsSent
		transitions += int64(s.Transitions)
	}
	for k, v := range map[string]float64{
		"traffic.arrivals":              float64(tr.Len()),
		"checkpoint.bytes":              float64(len(enc)),
		"network.cycles_executed":       float64(sk.CyclesExecuted),
		"network.cycles_fast_forwarded": float64(sk.CyclesFastForwarded),
		"network.router_ticks":          float64(sk.RouterTicks),
		"network.router_ticks_elided":   float64(sk.RouterTicksElided),
		"network.elision_ratio":         sk.ElisionRatio(),
		"router.flits_switched":         float64(act.Crossbar),
		"router.arb_grants":             float64(act.ArbGrants),
		"router.buf_writes":             float64(act.BufWrites),
		"link.flits_sent":               float64(flits),
		"link.transitions":              float64(transitions),
		"sim.events":                    float64(n.Sched.SeqCounter()),
	} {
		rep.Counters[k] = v
	}
	return noc.Results{
		Cycles:            nr.Cycles,
		InjectedPackets:   nr.InjectedPkts,
		DeliveredPackets:  nr.DeliveredPkts,
		MeanLatencyCycles: nr.MeanLatency,
		P50LatencyCycles:  nr.P50Latency,
		P99LatencyCycles:  nr.P99Latency,
		ThroughputPkts:    nr.ThroughputPkts,
		AvgPowerW:         nr.AvgPowerW,
		NormalizedPower:   nr.NormalizedPwr,
		PowerSavingsX:     nr.SavingsX,
	}, n.InFlight, nil
}

// lower is noc.Config.lower for the fields DefaultConfig sets; the traced
// run's results must equal the untraced runs', which pins the two together.
func lower(c noc.Config) (network.Config, error) {
	cfg := network.NewConfig()
	cfg.K = c.MeshSize
	cfg.N = c.Dims
	cfg.Torus = c.Torus
	cfg.Router.Ports = 1 + 2*c.Dims
	cfg.Router.VCs = c.VCs
	cfg.Router.BufPerPort = c.BufPerPort
	cfg.Router.PipelineDepth = c.PipelineDepth
	cfg.Routing = c.Routing
	cfg.DVS = core.Params{
		W: c.W, H: c.H, BCongested: c.BCongested,
		TLLow: c.TLLow, TLHigh: c.TLHigh, THLow: c.THLow, THHigh: c.THHigh,
	}
	cfg.Link.VoltTransition = sim.Time(c.VoltTransition.Nanoseconds()) * sim.Nanosecond
	cfg.Link.FreqTransitionCycles = c.FreqTransitionCycles
	cfg.Seed = c.Seed
	if c.Policy != noc.PolicyHistory {
		return cfg, fmt.Errorf("traced point supports policy %q only", noc.PolicyHistory)
	}
	cfg.Policy = network.PolicyHistory
	return cfg, cfg.Validate()
}

// warmedKey is noc's checkpoint key for a one-shot run, so the traced run
// writes the entry an untraced run writes.
func warmedKey(c noc.Config, w noc.TwoLevelWorkload, pf pointFlags) (string, error) {
	neutral := c
	neutral.Policy = ""
	neutral.W, neutral.H, neutral.BCongested = 0, 0, 0
	neutral.TLLow, neutral.TLHigh, neutral.THLow, neutral.THHigh = 0, 0, 0, 0
	neutral.VoltTransition, neutral.FreqTransitionCycles = 0, 0
	neutral.Tiles = 0
	b, err := json.Marshal(neutral)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("ckpt-netsim|v%d|cfg=%s|rate=%g|tasks=%d|taskdur=%d|wseed=%d|warmup=%d|measure=%d",
		exp.SchemaVersion, b, w.Rate, w.Tasks, int64(w.TaskDuration), w.Seed, pf.warmup, pf.measure), nil
}
