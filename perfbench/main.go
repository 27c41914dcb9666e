// Command perfbench is the repository's benchmark: it builds the
// simulator from the sources in the current directory, runs one workload
// as fresh worker processes for a fixed time, checks their outputs and
// prints the metrics, the last line as one JSON object.
//
//	sh perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
//	sh perfbench/run.sh calibrate --runs 10 --seconds 30 --out perfbench/baseline.json
//	sh perfbench/run.sh compare parent.jsonl change.jsonl
//
// Run it from the repository root. README.md in this directory describes
// the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	root, err := os.Getwd()
	if err == nil {
		err = checkRoot(root)
	}
	if err == nil {
		switch {
		case len(os.Args) > 1 && os.Args[1] == "calibrate":
			err = calibrate(root, os.Args[2:])
		case len(os.Args) > 1 && os.Args[1] == "compare":
			err = compare(root, os.Args[2:])
		default:
			err = bench(root, os.Args[1:])
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// checkRoot refuses to run anywhere but a repository root.
func checkRoot(root string) error {
	for _, p := range []string{"go.mod", "noc", filepath.Join("internal", "exp", "testdata", "golden")} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("%s is not the repository root (no %s)", root, p)
		}
	}
	return nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (spec, error) {
	var s spec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &s)
	}
	return s, err
}

func bench(root string, args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measuring time")
	trace := fs.Int("trace", 0, "1: one extra traced run, report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	sp, err := readSpec(root)
	if err != nil {
		return err
	}
	out := filepath.Join(root, ".bench_build")
	b, err := build(root, out)
	if err != nil {
		return err
	}
	base := filepath.Join(out, "runs", fmt.Sprintf("%s-seed%d-pid%d", w.name, *seed, os.Getpid()))
	defer os.RemoveAll(base)
	inv, err := measure(root, b, base, *w, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}

	values, specs := inv.endToEnd(), sp.EndToEnd
	if *trace == 1 {
		values, specs = inv.perLayer(), sp.PerLayer
	}
	if values == nil {
		for _, c := range inv.checks {
			fmt.Fprintf(os.Stderr, "check %s: ok=%v %s\n", c.Name, c.OK, c.Detail)
		}
		return errors.New("no run completed")
	}
	printStamp(root, b, inv)
	res := result{Attempted: len(inv.checks), Metrics: map[string]metric{}}
	for _, c := range inv.checks {
		if !c.OK {
			res.Failed++
			fmt.Printf("FAILED check %q: %s\n", c.Name, c.Detail)
		}
	}
	res.Correct = res.Failed == 0
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return fmt.Errorf("metric %s is not measured", s.Name)
		}
		res.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
		fmt.Printf("%-32s %14.6g %s\n", s.Name, v, s.Unit)
	}
	fmt.Printf("%s: %d untraced runs, %d set-up probes, traced=%v; %d checks, %d failed\n",
		w.name, len(inv.timed), len(inv.probes), inv.traced != nil, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printStamp identifies the host and build behind the numbers.
func printStamp(root string, b bins, inv *invocation) {
	st := inv.timed[0].rep.Stamp
	commit, dirty := "none (not a git checkout)", ""
	if c, err := run(root, "git", "rev-parse", "HEAD"); err == nil {
		commit = c
		if s, err := run(root, "git", "status", "--porcelain"); err == nil && s != "" {
			dirty = "+dirty"
		}
	}
	fmt.Printf("stamp: nproc=%d GOMAXPROCS=%d go=%s commit=%s%s tree=%s build-revision=%s seed=%d\n",
		st.NumCPU, st.GOMAXPROCS, st.GoVersion, commit, dirty, b.tree, st.Revision, inv.seed)
}

// calibrate runs the benchmark command several times per workload, each
// with its own seed, and records each end-to-end metric's medians,
// quartiles and spread (the evidence behind the bounds in BENCHMARK.json),
// plus one traced run's per-layer metrics.
func calibrate(root string, args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	seconds := fs.Int("seconds", 30, "measuring time per run")
	only := fs.String("workloads", "", "comma-separated subset")
	outPath := fs.String("out", "", "write the summary here as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := readSpec(root)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// once runs the benchmark command and returns its stamp and result.
	once := func(w string, seed, trace int) (string, result, error) {
		var r result
		out, err := run(root, self, "--workload", w, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(trace))
		if err != nil {
			return "", r, err
		}
		lines := strings.Split(out, "\n")
		fmt.Fprintf(os.Stderr, "%s seed %d trace %d: %s\n", w, seed, trace, lines[len(lines)-1])
		return lines[0], r, json.Unmarshal([]byte(lines[len(lines)-1]), &r)
	}
	type summary struct {
		Values          []float64
		Q1, Median, Q3  float64
		Spread, Bound   float64
		SpreadOverBound float64
		Unit            string
	}
	type record struct {
		Stamp      string
		Runs       int
		FailedRuns int
		EndToEnd   map[string]*summary
		PerLayer   map[string]metric // one traced run, seed 1
	}
	out := map[string]*record{}
	for _, w := range workloads {
		if *only != "" && !strings.Contains(","+*only+",", ","+w.name+",") {
			continue
		}
		rec := &record{Runs: *runs, EndToEnd: map[string]*summary{}}
		out[w.name] = rec
		for _, s := range sp.EndToEnd {
			rec.EndToEnd[s.Name] = &summary{Bound: s.Bound, Unit: s.Unit}
		}
		for seed := 1; seed <= *runs; seed++ {
			stamp, r, err := once(w.name, seed, 0)
			if err != nil {
				return err
			}
			if seed == 1 {
				rec.Stamp = stamp
			}
			if !r.Correct {
				rec.FailedRuns++
			}
			for _, s := range sp.EndToEnd {
				m := rec.EndToEnd[s.Name]
				m.Values = append(m.Values, r.Metrics[s.Name].Value)
			}
		}
		for _, s := range sp.EndToEnd {
			m := rec.EndToEnd[s.Name]
			m.Q1, m.Median, m.Q3 = quartiles(m.Values)
			m.Spread = spread(m.Values)
			m.SpreadOverBound = m.Spread / m.Bound
			fmt.Printf("%-16s %-18s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f (bound %.2f)\n",
				w.name, s.Name, m.Median, m.Q1, m.Q3, m.Spread, m.Bound)
		}
		_, r, err := once(w.name, 1, 1)
		if err != nil {
			return err
		}
		if !r.Correct {
			rec.FailedRuns++
		}
		rec.PerLayer = r.Metrics
	}
	if *outPath == "" {
		return nil
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*outPath, append(b, '\n'), 0o644)
}

// compare judges a change's benchmark results against its parent's. Each
// file holds the last output lines of several runs of one workload, one
// JSON object a line. It exits non-zero when any metric regressed.
func compare(root string, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: compare <parent.jsonl> <change.jsonl>")
	}
	sp, err := readSpec(root)
	if err != nil {
		return err
	}
	var series [2]map[string][]float64
	for i, path := range args {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		series[i] = map[string][]float64{}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			for k, m := range r.Metrics {
				series[i][k] = append(series[i][k], m.Value)
			}
		}
	}
	compared, regressed := 0, 0
	for _, s := range sp.EndToEnd {
		p, c := series[0][s.Name], series[1][s.Name]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		compared++
		v, detail := judge(p, c, s.Bound, s.Better == "lower")
		if v == verdictRegressed {
			regressed++
		}
		fmt.Printf("%-18s %-10s %s\n", s.Name, v, detail)
	}
	if compared == 0 {
		return errors.New("no end-to-end metric in both files")
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
