package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/noc"
)

var sampleResults = noc.Results{
	Cycles: 150000, InjectedPackets: 1234, DeliveredPackets: 1200,
	MeanLatencyCycles: 41.25, P50LatencyCycles: 38, P99LatencyCycles: 97,
	ThroughputPkts: 0.008, AvgPowerW: 12.5, NormalizedPower: 0.4, PowerSavingsX: 2.5,
}

func render(cfg noc.Config) string {
	var buf bytes.Buffer
	printSummary(&buf, cfg, sampleResults, 34, "twolevel", 1.0, 100, time.Millisecond, 60000)
	return buf.String()
}

// The default-flag block is the contract the run cache's replay shares
// with live runs: pinned byte for byte.
func TestPrintSummaryDefault(t *testing.T) {
	want := "platform   : 8x8 mesh(torus=false), policy=history, routing=dor\n" +
		"workload   : twolevel rate=1.00 (tasks=100, dur=1ms)\n" +
		"cycles     : 150000 measured after 60000 warmup\n" +
		"packets    : 1234 injected, 1200 delivered, 34 in flight\n" +
		"latency    : 41.2 cycles mean (P50 38, P99 97)\n" +
		"throughput : 0.008 packets/cycle\n" +
		"power      : 12.5 W avg (0.400 of non-DVS baseline, 2.50X savings)\n"
	if got := render(noc.DefaultConfig()); got != want {
		t.Fatalf("default summary:\n%s\nwant:\n%s", got, want)
	}
}

// A -config file's platform must reach the summary: the platform line is
// rendered from the effective config, not from the (unset) flags. Each
// case differs from the flag defaults in every field the line prints that
// a valid config can change together (adaptive routing is mesh-only).
func TestPrintSummaryUsesConfig(t *testing.T) {
	cases := []struct {
		torus           bool
		policy, routing string
		want            string
	}{
		{true, noc.PolicyNone, "dor", "platform   : 4x4 mesh(torus=true), policy=none, routing=dor"},
		{false, noc.PolicyLinkUtilOnly, "adaptive", "platform   : 4x4 mesh(torus=false), policy=link-util-only, routing=adaptive"},
	}
	for _, c := range cases {
		cfg := noc.DefaultConfig()
		cfg.MeshSize = 4
		cfg.Torus = c.torus
		cfg.Policy = c.policy
		cfg.Routing = c.routing
		path := filepath.Join(t.TempDir(), "cfg.json")
		if err := noc.SaveConfig(path, cfg); err != nil {
			t.Fatal(err)
		}
		loaded, err := noc.LoadConfig(path)
		if err != nil {
			t.Fatal(err)
		}
		if first, _, _ := strings.Cut(render(loaded), "\n"); first != c.want {
			t.Errorf("platform line %q, want %q", first, c.want)
		}
	}
}
