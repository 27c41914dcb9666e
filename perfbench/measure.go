package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/perfbench/report"
)

// workload is one benchmark input: which worker program runs, how many
// simulation workers it uses, and the real command whose output it must
// reproduce.
type workload struct {
	name string
	jobs int // concurrent simulations, for exp.worker_util
	// reseed gives each untraced process of a run its own simulation seed
	// (see simSeed), so that a run's median spans several traffic
	// realizations instead of repeating one.
	reseed bool
	// command returns the cmd/figures or cmd/netsim invocation that replays
	// this workload from a warm cache directory.
	command func(b bins, seed uint64, cacheDir string) []string
}

var workloads = []workload{
	{"sweep-cold", 2, false, func(b bins, seed uint64, dir string) []string {
		return []string{b.figures, "-exp", "fig10,fig13", "-quick", "-j", "2", "-seed", u(seed), "-cache-dir", dir}
	}},
	{"point-saturated", 1, true, func(b bins, seed uint64, dir string) []string {
		return []string{b.netsim, "-rate", "4.0", "-warmup", "60000", "-cycles", "150000", "-seed", u(seed), "-cache-dir", dir}
	}},
	{"point-idle", 1, true, func(b bins, seed uint64, dir string) []string {
		return []string{b.netsim, "-rate", "0.05", "-warmup", "1000000", "-cycles", "4000000", "-seed", u(seed), "-cache-dir", dir}
	}},
}

func u(v uint64) string { return strconv.FormatUint(v, 10) }

// simSeed is the simulation seed of a run's i-th untraced process. The
// first process, the traced run and the set-up probes use the workload
// seed itself.
func (w workload) simSeed(seed uint64, i int) uint64 {
	if !w.reseed {
		return seed
	}
	return seed + 1000*uint64(i)
}

// maxSetupSamples caps set-up probes: enough for a steady median of a
// millisecond-scale set-up. probeShare is the share of the measuring time
// kept for them.
const (
	maxSetupSamples = 15
	probeShare      = 0.05
)

// proc is one worker process as perfbench saw it.
type proc struct {
	rep                        report.Report
	wallS, cpuS, rssMB, setupS float64
	err                        error
	dir                        string
}

// spawn runs one worker in its own empty directory under base.
func spawn(b bins, base, name string, seed uint64, idx int, traced, setupOnly bool) proc {
	dir := filepath.Join(base, fmt.Sprintf("run%02d", idx))
	p := proc{dir: dir}
	if p.err = os.MkdirAll(dir, 0o755); p.err != nil {
		return p
	}
	cmd := exec.Command(b.worker, "-workload", name, "-seed", u(seed), "-dir", dir,
		"-trace="+strconv.FormatBool(traced), "-setup-only="+strconv.FormatBool(setupOnly))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	p.wallS = time.Since(t0).Seconds()
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			p.cpuS = tv(ru.Utime) + tv(ru.Stime)
			p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		p.err = fmt.Errorf("%s run %d: %v: %s", name, idx, err, bytes.TrimSpace(stderr.Bytes()))
		return p
	}
	raw, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err == nil {
		err = json.Unmarshal(raw, &p.rep)
	}
	if err != nil {
		p.err = fmt.Errorf("%s run %d: %v", name, idx, err)
		return p
	}
	p.setupS = float64(p.rep.SetupEndUnixNs-t0.UnixNano()) / 1e9
	return p
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// invocation is everything one benchmark command measured.
type invocation struct {
	w       workload
	seed    uint64
	timed   []proc // untraced runs
	probes  []proc // set-up-only runs
	traced  *proc
	checks  []report.Check
	profile map[string]float64 // CPU ns per package row of the traced run
	profNs  float64
}

func (inv *invocation) check(name string, ok bool, detail string, args ...any) {
	inv.checks = append(inv.checks, report.Check{Name: name, OK: ok, Detail: fmt.Sprintf(detail, args...)})
}

// measure runs untraced worker processes for about `seconds`, then (with
// traced) one traced process, then set-up probes while time remains. Each
// process starts from an empty cache directory; only the first is kept
// long enough to replay through the real command.
func measure(root string, b bins, base string, w workload, seed uint64, seconds float64, traced bool) (*invocation, error) {
	inv := &invocation{w: w, seed: seed}
	start := time.Now()
	elapsed := func() float64 { return time.Since(start).Seconds() }
	for i := 0; ; i++ {
		p := spawn(b, base, w.name, w.simSeed(seed, i), i, false, false)
		inv.timed = append(inv.timed, p)
		inv.checkRun(root, p, i == 0)
		if i == 0 && p.err == nil {
			inv.replay(b, p)
		}
		if err := os.RemoveAll(p.dir); err != nil {
			return nil, err
		}
		// Keep a slice of the time for set-up probes and, when asked, a
		// traced run.
		reserve := probeShare * seconds
		if traced {
			reserve += 1.2 * p.wallS
		}
		if elapsed()+p.wallS+reserve > seconds {
			break
		}
	}
	if traced {
		p := spawn(b, base, w.name, seed, len(inv.timed), true, false)
		inv.traced = &p
		inv.checkRun(root, p, false)
		if p.err == nil {
			var err error
			if inv.profile, inv.profNs, err = selfTime(filepath.Join(p.dir, "cpu.pprof")); err != nil {
				return nil, err
			}
			if err := keepTrace(base, w.name, p); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(p.dir); err != nil {
			return nil, err
		}
	}
	for len(inv.timed)+len(inv.probes) < maxSetupSamples {
		cost := median(inv.setupSamples()) + 0.01
		if elapsed()+cost > seconds {
			break
		}
		p := spawn(b, base, w.name, seed, 100+len(inv.probes), false, true)
		inv.check("set-up probe completes", p.err == nil, "%v", p.err)
		inv.probes = append(inv.probes, p)
		if err := os.RemoveAll(p.dir); err != nil {
			return nil, err
		}
	}
	return inv, nil
}

// checkRun records a run's own checks and compares its outputs: with seed
// 1 a figure must equal its golden file, read from the repository now so
// that an intended regeneration carries over; otherwise every run with the
// first run's simulation seed, the traced run included, must equal it.
func (inv *invocation) checkRun(root string, p proc, first bool) {
	inv.check("run completes", p.err == nil, "%v", p.err)
	if p.err != nil {
		return
	}
	inv.checks = append(inv.checks, p.rep.Checks...)
	if inv.w.name == "sweep-cold" && inv.seed == 1 {
		for _, o := range p.rep.Outputs {
			golden, err := os.ReadFile(filepath.Join(root, "internal", "exp", "testdata", "golden", o.Name+"_quick.txt"))
			inv.check(o.Name+" equals its golden file", err == nil && string(golden) == o.Text, "%v", err)
		}
		return
	}
	ref := inv.timed[0]
	if first || ref.err != nil || p.rep.Seed != ref.rep.Seed {
		return
	}
	same := len(p.rep.Outputs) == len(ref.rep.Outputs)
	for i := 0; same && i < len(p.rep.Outputs); i++ {
		same = p.rep.Outputs[i] == ref.rep.Outputs[i]
	}
	if p.rep.Results != nil || ref.rep.Results != nil {
		a, _ := json.Marshal(p.rep.Results)
		b, _ := json.Marshal(ref.rep.Results)
		same = same && bytes.Equal(a, b)
	}
	inv.check("outputs identical to the first run", same, "traced=%v", p.rep.Traced)
}

// replay runs the real command against the first run's warm cache: it must
// answer from the cache, proving the worker used the command's keys, and
// print exactly what the worker printed.
func (inv *invocation) replay(b bins, p proc) {
	args := inv.w.command(b, inv.seed, filepath.Join(p.dir, "cache"))
	cmd := exec.Command(args[0], append(args[1:], "-cachestats")...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var want bytes.Buffer
	for _, o := range p.rep.Outputs {
		if len(p.rep.Outputs) > 1 {
			fmt.Fprintf(&want, "### %s\n\n", o.Name)
		}
		want.WriteString(o.Text)
	}
	hit := bytes.Contains(stderr.Bytes(), []byte("runcache: hits=")) && !bytes.Contains(stderr.Bytes(), []byte("runcache: hits=0 "))
	inv.check("real command replays the run's output from its cache", err == nil && hit && bytes.Equal(stdout.Bytes(), want.Bytes()),
		"%s: err=%v hit=%v equal=%v", filepath.Base(args[0]), err, hit, bytes.Equal(stdout.Bytes(), want.Bytes()))
}

// keepTrace copies the traced run's spans and profile to base/../trace,
// the one place a run's trace survives the run.
func keepTrace(base, name string, p proc) error {
	dst := filepath.Join(filepath.Dir(base), "trace", name)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	spans, err := json.MarshalIndent(p.rep.Spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dst, "spans.json"), spans, 0o644); err != nil {
		return err
	}
	return copyFile(filepath.Join(p.dir, "cpu.pprof"), filepath.Join(dst, "cpu.pprof"))
}

// succeeded drops the processes that failed.
func succeeded(ps []proc) []proc {
	var out []proc
	for _, p := range ps {
		if p.err == nil {
			out = append(out, p)
		}
	}
	return out
}

func (inv *invocation) setupSamples() []float64 {
	var xs []float64
	for _, p := range append(succeeded(inv.timed), succeeded(inv.probes)...) {
		xs = append(xs, p.setupS)
	}
	return xs
}

func collect(ps []proc, f func(p proc) float64) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return xs
}

// endToEnd reports the medians of the untraced runs.
func (inv *invocation) endToEnd() map[string]float64 {
	ps := succeeded(inv.timed)
	if len(ps) == 0 {
		return nil
	}
	return map[string]float64{
		"wall_s":  median(collect(ps, func(p proc) float64 { return p.wallS })),
		"cpu_s":   median(collect(ps, func(p proc) float64 { return p.cpuS })),
		"setup_s": median(inv.setupSamples()),
		"sim_cycles_per_s": median(collect(ps, func(p proc) float64 {
			return float64(p.rep.SimCycles) / (p.wallS - p.setupS)
		})),
	}
}

// profiledPackages are the self-time rows reported as <row>.self_frac.
var profiledPackages = []string{
	"network", "router", "topology", "routing", "link", "sim", "core", "stats", "power",
	"traffic", "tracestore", "runcache", "checkpoint", "exp", "flow", "runtime", "other",
}

// perLayer derives the per-module metrics from the traced run's counters,
// spans and profile. A metric a workload cannot reach from outside the
// program reads 0 (see README.md).
func (inv *invocation) perLayer() map[string]float64 {
	if inv.traced == nil || inv.traced.err != nil {
		return nil
	}
	t := inv.traced
	m := map[string]float64{}
	for _, k := range counterNames {
		m[k] = t.rep.Counters[k]
	}
	spanS := map[string]float64{}
	for _, s := range t.rep.Spans {
		spanS[s.Name] += float64(s.EndNs-s.StartNs) / 1e9
	}
	m["traffic.capture_s"] = spanS["traffic.SharedTwoLevelTrace"]
	m["runcache.put_s"] = spanS["exp.CacheStoreRaw"] + spanS["noc.RunCacheStore"]
	m["checkpoint.capture_s"] = spanS["checkpoint.Capture"]
	m["checkpoint.encode_s"] = spanS["checkpoint.Encode"]
	m["network.warmup_s"] = spanS["network.Run(warmup)"]
	m["network.measure_s"] = spanS["network.Run(measure)"]
	runNs := (spanS["network.Run(warmup)"] + spanS["network.Run(measure)"]) * 1e9
	m["network.ns_per_cycle"] = ratio(runNs, m["network.cycles_executed"]+m["network.cycles_fast_forwarded"])
	m["sim.ns_per_event"] = ratio(runNs, m["sim.events"])
	// Rows outside profiledPackages (noc, the worker itself) count as other.
	rest := inv.profNs
	for _, row := range profiledPackages {
		m[row+".self_frac"] = ratio(inv.profile[row], inv.profNs)
		rest -= inv.profile[row]
	}
	m["other.self_frac"] += ratio(rest, inv.profNs)
	m["router.ns_per_flit"] = ratio(inv.profile["router"], m["router.flits_switched"])
	m["runtime.peak_rss_mb"] = median(collect(succeeded(inv.timed), func(p proc) float64 { return p.rssMB }))
	if e := inv.endToEnd(); e != nil {
		m["exp.worker_util"] = e["cpu_s"] / (e["wall_s"] * float64(inv.w.jobs))
		m["trace.overhead_frac"] = (t.wallS - e["wall_s"]) / e["wall_s"]
	}
	return m
}

// counterNames are the per-layer metrics a worker reports as counters.
var counterNames = []string{
	"traffic.arrivals", "tracestore.puts", "tracestore.bytes_written",
	"runcache.puts", "runcache.bytes_written", "checkpoint.bytes",
	"exp.warmup_cycles", "exp.warmup_cycles_saved", "exp.points",
	"network.cycles_executed", "network.cycles_fast_forwarded", "network.router_ticks",
	"network.router_ticks_elided", "network.elision_ratio",
	"router.flits_switched", "router.arb_grants", "router.buf_writes",
	"link.flits_sent", "link.transitions", "sim.events",
	"runtime.alloc_mb", "runtime.gc_cycles",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
