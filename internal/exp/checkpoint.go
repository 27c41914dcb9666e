// Warmup checkpointing: experiment sweeps ablate the DVS policy across
// many variants at each (seed, rate) operating point, and every variant
// used to pay for its own warmup from cycle 0. Warmups now run
// policy-frozen (network.SetDVSHold) — the policy is a measurement-time
// concern, and freezing it makes the warmed-up state provably
// policy-independent — so the harness captures the warmed state once per
// warm key (internal/checkpoint) and forks it per variant. The fork is
// byte-identical to an uninterrupted run (the conformance suite pins
// this), so results are the same with the path disabled
// (Options.NoCheckpoint); only warmup work is saved.
package exp

import (
	"fmt"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// warmupCycles counts simulated warmup cycles process-wide. The
// checkpoint-reduction test asserts a checkpointed sweep executes
// measurably fewer of them than a straight one; re-executed warmups
// (capture refusals, straight fallbacks) count every time — it meters
// work actually done, not work intended.
var warmupCycles atomic.Int64

// WarmupCyclesExecuted reports the total warmup cycles simulated by this
// process. Tests diff it around sweeps.
func WarmupCyclesExecuted() int64 { return warmupCycles.Load() }

// heldWarmup attaches m until horizon and runs warm cycles with the DVS
// policies frozen. The hold stays on; the caller releases it.
func heldWarmup(n *network.Network, m traffic.Model, horizon sim.Time, warm int64) {
	n.Launch(m, horizon)
	n.SetDVSHold(true)
	n.Run(warm)
	warmupCycles.Add(warm)
}

// WarmStart brings a network built from cfg to the end of a policy-frozen
// warmup of warm cycles under trace tr, attached until horizon, and
// returns it with the hold still on, together with the snapshot of that
// instant. It forks the snapshot the run cache holds under key when one
// decodes and restores into cfg; an entry that does neither is dropped
// from the cache. Otherwise it runs the warmup, captures it and persists
// the snapshot under key. snap is nil only when capture refuses the
// network, which is then warmed up but not shareable.
func WarmStart(key string, cfg network.Config, tr *traffic.Trace, horizon sim.Time, warm int64) (n *network.Network, snap *checkpoint.Snapshot, err error) {
	ds := diskStore.Load()
	if ds != nil {
		if b, ok := ds.Get(key); ok {
			if snap, err := checkpoint.Decode(b); err == nil {
				if n, err := checkpoint.Fork(snap, cfg, tr); err == nil {
					return n, snap, nil
				}
			}
			ds.Drop(key)
		}
	}
	if n, err = network.New(cfg); err != nil {
		return nil, nil, err
	}
	heldWarmup(n, tr, horizon, warm)
	if snap, err = checkpoint.Capture(n); err != nil {
		// Refusals are a correctness escape hatch, not an error: the
		// warmed network is as good as ever, it just cannot be shared.
		return n, nil, nil
	}
	if ds != nil {
		if b, err := checkpoint.Encode(snap); err == nil {
			ds.Put(key, b) // a failed put costs a future warmup, nothing else
		}
	}
	return n, snap, nil
}

// warmSnap is one warm-key cache slot: the captured warmed-up state and
// the trace it ran under (forks re-attach the same trace; the snapshot
// itself carries only the replay's progress). snap is nil when the point
// cannot be checkpointed — its workload exceeds the trace budget, or
// capture refused — in which case every later variant runs straight.
type warmSnap struct {
	snap *checkpoint.Snapshot
	tr   *traffic.Trace
}

// warmSnapCache deduplicates warmup simulations inside the process, one
// slot per warm key. It only ever holds snapshots WarmStart has forked or
// captured, so a stale disk entry never reaches it.
var warmSnapCache = newSFCache[string, *warmSnap](64)

// warmKey identifies everything a frozen warmup depends on: budgets (the
// traffic horizon spans warmup and measurement, so both matter), workload,
// platform shape and the simulation-core toggles. The policy selection,
// its thresholds and window parameters, and the link transition latencies
// are deliberately absent — a held warmup never consults them, which is
// exactly what lets policy ablations share one snapshot.
func (s spec) warmKey(o Options) string {
	warm, meas := o.budget()
	return fmt.Sprintf("ckpt|v%d|warm=%d|meas=%d|audit=%t|noskip=%t|seed=%d|"+
		"rate=%g|tasks=%d|taskdur=%d|routing=%s|specseed=%d|levels=%d|k=%d|n=%d|torus=%t",
		SchemaVersion, warm, meas, o.Audit, o.NoSkip, o.seed(),
		s.rate, s.tasks, int64(s.taskDur), s.routing, s.seed, s.levels, s.k, s.n, s.torus)
}

// simulate executes warmup + measurement for one point. The warmup always
// runs policy-frozen, on both paths, so the two are step-for-step
// identical until measurement begins: straight runs hold, warm up and
// release; checkpointed runs start from WarmStart's network at the same
// held instant and release. Points that cannot fork (untraceable
// workload, capture refusal) land on the straight path.
func simulate(s spec, o Options) network.Results {
	warm, meas := o.budget()
	var n *network.Network
	if !o.NoCheckpoint {
		n = s.warmStart(o)
	}
	if n == nil {
		var m traffic.Model
		var horizon sim.Time
		n, m, horizon = s.build(o, warm+meas+1)
		heldWarmup(n, m, horizon, warm)
	}
	n.SetDVSHold(false)
	n.BeginMeasurement()
	n.Run(meas)
	return n.Snapshot()
}

// warmStart returns this variant's network at the end of the point's
// shared warmup, or nil when the point cannot fork. The first variant of
// a warm key runs WarmStart and keeps the network it returns; the others
// fork the snapshot it left in warmSnapCache. The caller already holds a
// simulation slot, so the warmup runs inside it.
func (s spec) warmStart(o Options) *network.Network {
	cfg := s.config(o)
	wkey := s.warmKey(o)
	var own *network.Network
	ws := warmSnapCache.do(wkey, func() *warmSnap {
		if noTraceMemo {
			return &warmSnap{} // forks need a shared trace to re-attach
		}
		warm, meas := o.budget()
		horizon := sim.Time(warm+meas+1) * cfg.RouterPeriod
		topo := topology.New(cfg.K, cfg.N, cfg.Torus)
		tr, _ := traffic.SharedTwoLevelTrace(s.twoLevelParams(o), topo, horizon)
		if tr == nil {
			// Workload exceeds the trace budget: run live, straight.
			// build emits the fallback note for this point.
			return &warmSnap{}
		}
		n, snap, err := WarmStart(wkey, cfg, tr, horizon, warm)
		if err != nil {
			panic(err)
		}
		own = n
		return &warmSnap{snap: snap, tr: tr}
	})
	if own != nil || ws.snap == nil {
		return own
	}
	n, err := checkpoint.Fork(ws.snap, cfg, ws.tr)
	if err != nil {
		return nil // cannot happen for a snapshot WarmStart vetted; run straight
	}
	return n
}
