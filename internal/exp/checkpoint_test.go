package exp

import (
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/runcache"
	"repro/internal/traffic"
)

// renderTables flattens an experiment's tables to the exact bytes
// cmd/figures would print.
func renderTables(t *testing.T, id string, o Options) string {
	t.Helper()
	tabs, err := Run(id, o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var sb strings.Builder
	for _, tab := range tabs {
		tab.Fprint(&sb)
	}
	return sb.String()
}

// TestCheckpointReducesWarmupWork is the acceptance meter for the
// checkpoint path: a threshold sweep (fig13: 3 rates x 6 Table 2
// settings) shares one warm key per rate, so the checkpointed sweep must
// warm up exactly once per (seed, rate) — 3 warmups instead of 18, a 6x
// reduction in warmup cycles, far past the required 25% — while
// producing byte-identical tables.
func TestCheckpointReducesWarmupWork(t *testing.T) {
	tinyBudget = true
	defer func() {
		tinyBudget = false
		ResetCaches()
	}()

	sweep := func(o Options) (string, int64) {
		ResetCaches()
		before := WarmupCyclesExecuted()
		out := renderTables(t, "fig13", o)
		return out, WarmupCyclesExecuted() - before
	}
	straightOut, straight := sweep(Options{Quick: true, NoCheckpoint: true})
	forkedOut, forked := sweep(Options{Quick: true})

	if straightOut != forkedOut {
		t.Errorf("checkpointing changed fig13 output:\n--- straight ---\n%s--- forked ---\n%s",
			straightOut, forkedOut)
	}
	if straight == 0 {
		t.Fatal("straight sweep executed no warmup cycles")
	}
	if forked > straight*3/4 {
		t.Errorf("checkpointed sweep warmed up %d cycles vs %d straight; want at least a 25%% reduction",
			forked, straight)
	}
	// Exactly once per (seed, rate): the 6 settings at each rate must share
	// one warmup, so a capture refusal or key drift that silently re-warms
	// fails here, not just the looser threshold above.
	if want := straight / 6; forked != want {
		t.Errorf("checkpointed sweep warmed up %d cycles; want exactly %d (one warmup per rate)",
			forked, want)
	}
}

// TestWarmStartQuarantinesUnforkableSnapshot: a run-cache entry under a
// point's warm key that decodes but does not fork (here a 4x4 snapshot
// planted under the 8x8 point's key) is dropped, replaced by one warmup
// whose snapshot every other variant forks, and later processes fork the
// repaired entry instead of warming up again.
func TestWarmStartQuarantinesUnforkableSnapshot(t *testing.T) {
	tinyBudget = true
	defer func() {
		tinyBudget = false
		ResetCaches()
	}()
	ResetCaches()
	store, err := runcache.Open(t.TempDir(), runcache.Options{Fingerprint: "exp-quarantine-test"})
	if err != nil {
		t.Fatal(err)
	}
	SetDiskCache(store)
	defer SetDiskCache(nil)

	o := Options{Quick: true}
	warm, meas := o.budget()
	// WarmStart persists its capture under whatever key it is given.
	small := defaultSpec(0.3, network.PolicyHistory)
	small.k = 4
	_, m, horizon := small.build(o, warm+meas+1)
	if _, _, err := WarmStart(defaultSpec(0.3, network.PolicyHistory).warmKey(o), small.config(o), m.(*traffic.Trace), horizon, warm); err != nil {
		t.Fatal(err)
	}

	// warmed runs one variant forked and straight, checks they agree, and
	// reports the warmup cycles the forked run executed.
	warmed := func(p network.PolicyKind) int64 {
		s := defaultSpec(0.3, p)
		want := simulate(s, Options{Quick: true, NoCheckpoint: true})
		before := WarmupCyclesExecuted()
		if got := simulate(s, o); got != want {
			t.Errorf("%v: forked run diverged from straight:\nforked:   %+v\nstraight: %+v", p, got, want)
		}
		return WarmupCyclesExecuted() - before
	}
	var total int64
	for _, p := range []network.PolicyKind{network.PolicyHistory, network.PolicyLinkUtilOnly, network.PolicyNone} {
		total += warmed(p)
	}
	if total != warm {
		t.Errorf("3 policies warmed up %d cycles; want one shared warmup of %d", total, warm)
	}
	if got := store.Stats().CorruptDropped; got != 1 {
		t.Errorf("CorruptDropped = %d, want 1 (the unforkable entry)", got)
	}
	// A later process has an empty memo; a new variant forks the repaired
	// entry from disk.
	ResetCaches()
	if got := warmed(network.PolicyAdaptiveThresholds); got != 0 {
		t.Errorf("new variant in a later process warmed up %d cycles; want 0 (fork the repaired entry)", got)
	}
}

// TestAblationLevelsValidate: every level count abl-levels sweeps keeps
// the slowest link period inside the network's message-ring bound.
func TestAblationLevelsValidate(t *testing.T) {
	for _, lv := range ablationLevels {
		s := defaultSpec(ablationRate, network.PolicyHistory)
		s.levels = lv
		if err := s.config(Options{}).Validate(); err != nil {
			t.Errorf("%d levels: %v", lv, err)
		}
	}
}
