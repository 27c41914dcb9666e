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

// warmSnap is one warm-key cache slot: the captured warmed-up state and
// the trace it ran under (forks re-attach the same trace; the snapshot
// itself carries only the replay's progress). Both nil when the point
// cannot be checkpointed — its workload exceeds the trace budget — in
// which case every variant runs straight.
type warmSnap struct {
	snap *checkpoint.Snapshot
	tr   *traffic.Trace
}

// warmSnapCache deduplicates warmup simulations inside the process, one
// slot per warm key.
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
// release; checkpointed runs fork a snapshot captured at the same held
// instant and release. Fallbacks (untraceable workload, capture refusal,
// restore failure) land on the straight path.
func simulate(s spec, o Options) network.Results {
	warm, meas := o.budget()
	if !o.NoCheckpoint {
		if ws := warmSnapshot(s, o); ws.snap != nil {
			if r, ok := forkAndMeasure(s, o, ws, meas); ok {
				return r
			}
		}
	}
	n, m, horizon := s.build(o, warm+meas+1)
	n.Launch(m, horizon)
	n.SetDVSHold(true)
	n.Run(warm)
	warmupCycles.Add(warm)
	n.SetDVSHold(false)
	n.BeginMeasurement()
	n.Run(meas)
	return n.Snapshot()
}

// forkAndMeasure builds this variant's network from the shared warmed-up
// snapshot and runs its measurement interval. ok is false when the
// snapshot does not restore (a stale or foreign disk payload whose bytes
// decode but whose shape does not fit this platform); the caller falls
// back to a straight run.
func forkAndMeasure(s spec, o Options, ws *warmSnap, meas int64) (network.Results, bool) {
	n, err := checkpoint.Fork(ws.snap, s.config(o), ws.tr)
	if err != nil {
		return network.Results{}, false
	}
	n.SetDVSHold(false)
	n.BeginMeasurement()
	n.Run(meas)
	return n.Snapshot(), true
}

// warmSnapshot returns the warmed-up snapshot for a point's warm key,
// computing it on first use: memory -> disk -> simulate, with the
// in-memory singleflight covering both lower layers. The caller already
// holds a simulation slot, so the warmup runs inside it.
func warmSnapshot(s spec, o Options) *warmSnap {
	wkey := s.warmKey(o)
	return warmSnapCache.do(wkey, func() *warmSnap {
		if noTraceMemo {
			return &warmSnap{} // forks need a shared trace to re-attach
		}
		warm, meas := o.budget()
		cfg := s.config(o)
		horizon := sim.Time(warm+meas+1) * cfg.RouterPeriod
		topo := topology.New(cfg.K, cfg.N, cfg.Torus)
		tr, _ := traffic.SharedTwoLevelTrace(s.twoLevelParams(o), topo, horizon)
		if tr == nil {
			// Workload exceeds the trace budget: run live, straight.
			// build already emitted the fallback note for this point.
			return &warmSnap{}
		}
		if ds := diskStore.Load(); ds != nil {
			if b, ok := ds.Get(wkey); ok {
				if snap, err := checkpoint.Decode(b); err == nil {
					return &warmSnap{snap: snap, tr: tr}
				}
				ds.Drop(wkey)
			}
		}
		n, err := network.New(cfg)
		if err != nil {
			panic(err)
		}
		n.Launch(tr, horizon)
		n.SetDVSHold(true)
		n.Run(warm)
		warmupCycles.Add(warm)
		snap, err := checkpoint.Capture(n)
		if err != nil {
			// Refusals are a correctness escape hatch, not an error: the
			// point simply runs straight (and pays its own warmups).
			return &warmSnap{}
		}
		if ds := diskStore.Load(); ds != nil {
			if b, err := checkpoint.Encode(snap); err == nil {
				ds.Put(wkey, b)
			}
		}
		return &warmSnap{snap: snap, tr: tr}
	})
}
