package exp

import (
	"fmt"
	"testing"

	"repro/internal/runcache"
)

// benchRunAll measures a full experiment-harness regeneration (the fig10
// latency/power sweep) against the persistent run cache, on the tiny test
// budget so iterations stay sub-second. With warmCache the store is
// pre-populated and every iteration replays disk entries; without it each
// iteration runs under a fresh cache generation so every point misses and
// simulates. The in-memory memo is reset outside the timed region either
// way, so the pair isolates disk-replay versus simulate cost — the
// cold-to-warm ratio is the headline number of the result cache.
func benchRunAll(b *testing.B, warmCache bool) {
	dir := b.TempDir()
	tinyBudget = true
	ResetCaches()
	defer func() {
		SetDiskCache(nil)
		tinyBudget = false
		ResetCaches()
	}()
	ids := []string{"fig10"}
	o := Options{Quick: true}
	open := func(fingerprint string) {
		s, err := runcache.Open(dir, runcache.Options{Fingerprint: fingerprint})
		if err != nil {
			b.Fatal(err)
		}
		SetDiskCache(s)
	}
	if warmCache {
		open("bench-warm")
		if _, err := RunAll(ids, o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ResetCaches()
		if !warmCache {
			// A fresh fingerprint generation guarantees cold misses without
			// clearing the directory inside the timed region.
			open(fmt.Sprintf("bench-gen-%d", i))
		}
		b.StartTimer()
		if _, err := RunAll(ids, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllColdCache is the simulate-and-store path: every fig10
// point misses the persistent run cache.
func BenchmarkRunAllColdCache(b *testing.B) { benchRunAll(b, false) }

// BenchmarkRunAllWarmCache is the same regeneration replayed entirely from
// disk.
func BenchmarkRunAllWarmCache(b *testing.B) { benchRunAll(b, true) }

// benchSweep measures one multi-policy threshold sweep — the fig13 grid, 3
// rates x 6 Table 2 settings on the tiny budget — with warmup
// checkpointing on or off. Checkpointed, the six settings at each rate
// fork one shared policy-frozen warmup; straight, every point pays for
// its own. The pair's ratio is the headline number of the checkpoint
// subsystem; warmup-cycles/op meters the work actually avoided.
func benchSweep(b *testing.B, noCheckpoint bool) {
	tinyBudget = true
	defer func() {
		tinyBudget = false
		ResetCaches()
	}()
	o := Options{Quick: true, NoCheckpoint: noCheckpoint}
	b.ReportAllocs()
	b.ResetTimer()
	warmBefore := WarmupCyclesExecuted()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ResetCaches() // every iteration re-simulates the whole grid
		b.StartTimer()
		if _, err := RunAll([]string{"fig13"}, o); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(WarmupCyclesExecuted()-warmBefore)/float64(b.N), "warmup-cycles/op")
}

// BenchmarkSweepStraight runs the fig13 threshold sweep with every point
// paying for its own warmup — the pre-checkpoint baseline.
func BenchmarkSweepStraight(b *testing.B) { benchSweep(b, true) }

// BenchmarkSweepCheckpointed is the same sweep with the six settings at
// each rate forking one shared policy-frozen warmup.
func BenchmarkSweepCheckpointed(b *testing.B) { benchSweep(b, false) }
