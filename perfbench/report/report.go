// Package report is the record a benchmark worker process writes and the
// perfbench command reads: outputs, checks, counters and spans of one run.
package report

import "repro/noc"

// Report is everything one worker run hands back to perfbench.
type Report struct {
	Workload  string
	Seed      uint64
	Traced    bool
	SetupOnly bool
	// SetupEndUnixNs is the wall-clock instant the first measured cycle
	// starts; perfbench subtracts the instant it started the process.
	SetupEndUnixNs int64
	// SimCycles counts router cycles simulated after set-up: measured
	// cycles plus warmup cycles actually simulated after set-up.
	SimCycles int64
	Outputs   []Output
	// Results is a point's measured result, compared across runs.
	Results  *noc.Results `json:",omitempty"`
	Checks   []Check
	Counters map[string]float64
	Spans    []Span
	Stamp    Stamp
}

// Output is one artifact the command prints: a figure or a summary block.
type Output struct {
	Name, Text string
}

// Check is one correctness or liveness assertion made inside the run.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Span is one timed call into a module's exported function.
type Span struct {
	Name           string
	StartNs, EndNs int64 // nanoseconds since process start
	Parent         int   // index into Spans, -1 for a root
	RunID          string
}

// Stamp identifies the build and host a result came from.
type Stamp struct {
	GoVersion  string
	NumCPU     int
	GOMAXPROCS int
	Revision   string
	Modified   bool
}
