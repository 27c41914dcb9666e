package noc

import (
	"encoding/json"
	"fmt"

	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Checkpointed warmups for one-shot runs (cmd/netsim): the warmup runs
// policy-frozen — DVS decision windows never close, links never change
// level — so the warmed-up state depends on the platform and workload but
// not on the policy under study. That state is captured once and persisted
// in the run cache; later invocations that differ only in policy,
// thresholds or transition latencies fork it instead of re-simulating the
// warmup. A fork is byte-identical to an uninterrupted run (pinned by
// internal/checkpoint's conformance suite), so snapshot reuse changes
// speed, never a result.

// warmedKey identifies everything a frozen warmup depends on: the platform
// with the policy family neutralized (the held warmup never consults the
// policy selection, its thresholds or the transition latencies — that is
// exactly what makes the snapshot shareable), the workload, and both cycle
// budgets (the captured trace spans warmup and measurement, so the horizon
// shapes the snapshot's replay state).
func warmedKey(c Config, w TwoLevelWorkload, warmup, measure int64) (string, error) {
	neutral := c
	neutral.Policy = ""
	neutral.W, neutral.H, neutral.BCongested = 0, 0, 0
	neutral.TLLow, neutral.TLHigh, neutral.THLow, neutral.THHigh = 0, 0, 0, 0
	neutral.VoltTransition, neutral.FreqTransitionCycles = 0, 0
	// Tiles (deprecated, 0 or 1) is zeroed so both accepted values share
	// one key.
	neutral.Tiles = 0
	b, err := json.Marshal(neutral)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("ckpt-netsim|v%d|cfg=%s|rate=%g|tasks=%d|taskdur=%d|wseed=%d|warmup=%d|measure=%d",
		exp.SchemaVersion, b, w.Rate, w.Tasks, int64(w.TaskDuration), w.Seed, warmup, measure), nil
}

// twoLevelTrace captures the workload as a finite trace spanning the run.
// Budget-eligible workloads go through the shared trace cache — memory,
// then the persistent trace store when one is installed (EnableTraceStore),
// then a live capture saved back for future processes. Oversized workloads
// capture directly: a one-shot netsim run always replays a trace, budget
// or not, so nothing changes semantically — only where the bytes come from.
func twoLevelTrace(lowered network.Config, w TwoLevelWorkload, warmup, measure int64) (*traffic.Trace, sim.Time, error) {
	p := traffic.NewTwoLevelParams(w.Rate)
	if w.Tasks > 0 {
		p.AvgTasks = w.Tasks
	}
	if w.TaskDuration > 0 {
		p.AvgTaskDuration = sim.Time(w.TaskDuration.Nanoseconds()) * sim.Nanosecond
	}
	p.Seed = w.Seed
	if p.Seed == 0 {
		p.Seed = lowered.Seed
	}
	topo := topology.New(lowered.K, lowered.N, lowered.Torus)
	horizon := sim.Time(warmup+measure+1) * lowered.RouterPeriod
	if tr, _ := traffic.SharedTwoLevelTrace(p, topo, horizon); tr != nil {
		return tr, horizon, nil
	}
	m, err := traffic.NewTwoLevel(p, topo)
	if err != nil {
		return nil, 0, err
	}
	return traffic.Capture(m, horizon), horizon, nil
}

// NewWarmedTwoLevel builds a network under the two-level workload and
// brings it to the end of a policy-frozen warmup, ready for Measure. With
// reuse enabled the warmup goes through exp.WarmStart: when a run cache is
// installed and a compatible earlier invocation already paid for this
// warmup, the warmed-up state forks from its persisted snapshot, and is
// captured and persisted otherwise. With reuse disabled the warmup always
// simulates. Both paths release the policy freeze at the same instant, so
// measurement results are identical either way.
func NewWarmedTwoLevel(c Config, w TwoLevelWorkload, warmup, measure int64, reuse bool) (*Network, error) {
	lowered, err := c.lower()
	if err != nil {
		return nil, err
	}
	tr, horizon, err := twoLevelTrace(lowered, w, warmup, measure)
	if err != nil {
		return nil, err
	}
	var n *network.Network
	if reuse {
		key, err := warmedKey(c, w, warmup, measure)
		if err != nil {
			return nil, err
		}
		if n, _, err = exp.WarmStart(key, lowered, tr, horizon, warmup); err != nil {
			return nil, err
		}
	} else {
		if n, err = network.New(lowered); err != nil {
			return nil, err
		}
		n.Launch(tr, horizon)
		n.SetDVSHold(true)
		n.Run(warmup)
	}
	n.SetDVSHold(false)
	return &Network{inner: n}, nil
}
