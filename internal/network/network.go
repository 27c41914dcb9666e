// Package network assembles topology, routers, DVS links, the history-based
// DVS policy and a traffic model into the paper's simulation platform: a
// k-ary n-cube of 1 GHz pipelined virtual-channel routers whose inter-router
// channels are DVS links in their own clock domains, exchanging flits by
// message passing (scheduled arrival events), with credit-based flow
// control whose credit-return latency tracks the reverse channel's speed.
package network

import (
	"fmt"
	"math/bits"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/link"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// PolicyKind selects the DVS controller attached to each output port.
type PolicyKind int

const (
	// PolicyNone pins every link at the top level (the non-DVS baseline).
	PolicyNone PolicyKind = iota
	// PolicyHistory is the paper's history-based DVS (Algorithm 1).
	PolicyHistory
	// PolicyLinkUtilOnly is the Section 3.1 ablation without the
	// buffer-utilization congestion litmus.
	PolicyLinkUtilOnly
	// PolicyAdaptiveThresholds is the Section 4.4.2 extension that walks
	// the Table 2 threshold settings online.
	PolicyAdaptiveThresholds
)

func (k PolicyKind) String() string {
	switch k {
	case PolicyNone:
		return "none"
	case PolicyHistory:
		return "history"
	case PolicyLinkUtilOnly:
		return "link-util-only"
	case PolicyAdaptiveThresholds:
		return "adaptive-thresholds"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// Config assembles a complete simulation platform. NewConfig returns the
// paper's Section 4.2 experimental setup.
type Config struct {
	// K, N, Torus shape the k-ary n-cube (paper: 8-ary 2-cube mesh).
	K, N  int
	Torus bool

	// Router is the per-node router microarchitecture.
	Router router.Config
	// Link is the DVS link design.
	Link link.Params
	// Policy selects the per-port DVS controller and its parameters.
	Policy PolicyKind
	// DVS holds the history-based policy parameters (Table 1).
	DVS core.Params
	// Routing names the routing algorithm ("dor" or "adaptive").
	Routing string

	// RouterPeriod is the router clock (paper: 1 GHz).
	RouterPeriod sim.Duration
	// StartLevel is the initial link level (-1 means the top level).
	StartLevel int

	// Seed feeds the traffic model when one is attached via Run.
	Seed uint64

	// NoSkip disables the activity-driven core: every router ticks every
	// cycle and quiescent intervals execute cycle by cycle, exactly as the
	// pre-activity-tracking simulator did. A debugging escape hatch — the
	// skipping path is proven byte-identical to this one by the equivalence
	// tests, so the only observable difference is speed.
	NoSkip bool

	// RefAllocators selects the routers' retained full-scan reference
	// allocator stages instead of the incremental work-list path. Another
	// debugging escape hatch: the two paths are proven byte-identical by
	// the equivalence tests, so the only observable difference is speed.
	RefAllocators bool

	// Audit configures the runtime invariant checker (internal/audit).
	// Disabled by default; when Audit.Enabled, the platform verifies flit
	// and credit conservation, VC state-machine legality, DVS link
	// legality and deadlock freedom as it runs.
	Audit audit.Options
}

// NewConfig returns the paper's experimental platform: 8x8 mesh, 1 GHz
// 13-stage routers with 2 VCs and 128 flit buffers per port, ten-level DVS
// links, Table 1 policy parameters.
func NewConfig() Config {
	return Config{
		K:            8,
		N:            2,
		Torus:        false,
		Router:       router.NewConfig(5),
		Link:         link.NewParams(),
		Policy:       PolicyHistory,
		DVS:          core.DefaultParams(),
		Routing:      "dor",
		RouterPeriod: sim.Nanosecond,
		StartLevel:   -1,
		Seed:         1,
	}
}

// Validate reports whether the configuration is coherent.
func (c Config) Validate() error {
	if c.K < 2 || c.N < 1 {
		return fmt.Errorf("network: invalid cube %d-ary %d", c.K, c.N)
	}
	if want := 1 + 2*c.N; c.Router.Ports != want {
		return fmt.Errorf("network: router has %d ports, topology needs %d", c.Router.Ports, want)
	}
	if err := c.Router.Validate(); err != nil {
		return err
	}
	if err := c.DVS.Validate(); err != nil {
		return err
	}
	if c.RouterPeriod <= 0 {
		return fmt.Errorf("network: router period %v", c.RouterPeriod)
	}
	if _, err := routing.ByName(c.Routing); err != nil {
		return err
	}
	t, err := link.NewTable(c.Link)
	if err != nil {
		return err
	}
	// A flit or credit rides the ring for at most one slowest-link period
	// (a credit on a channel without a link waits one router period).
	if cycles := (t.Period[0] + c.RouterPeriod - 1) / c.RouterPeriod; cycles >= ringSize {
		return fmt.Errorf("network: slowest link period is %d router cycles, above the %d-cycle bound of the message ring", cycles, ringSize-1)
	}
	return nil
}

// portCtl is the per-output-port DVS machinery: the policy instance and the
// channel it drives.
type portCtl struct {
	policy     core.Policy
	out        *router.OutputPort
	link       *link.DVSLink
	node, port int
}

// injector streams packets from a node's source queue into the local input
// port, one flit per router cycle, keeping each packet's flits contiguous
// on one VC. The queue is a power-of-two ring (head/count over a reused
// backing array) so saturated sources — whose queues never drain — do not
// churn slice backing arrays.
type injector struct {
	queue   []*flow.Packet
	qHead   int
	qLen    int
	current []*flow.Flit // remaining flits of the packet being injected
	vc      int
}

// push appends one packet to the source queue ring.
func (inj *injector) push(p *flow.Packet) {
	if inj.qLen == len(inj.queue) {
		size := 2 * len(inj.queue)
		if size == 0 {
			size = 16
		}
		grown := make([]*flow.Packet, size)
		for i := 0; i < inj.qLen; i++ {
			grown[i] = inj.queue[(inj.qHead+i)&(len(inj.queue)-1)]
		}
		inj.queue = grown
		inj.qHead = 0
	}
	inj.queue[(inj.qHead+inj.qLen)&(len(inj.queue)-1)] = p
	inj.qLen++
}

// pop removes and returns the front packet; the queue must be non-empty.
func (inj *injector) pop() *flow.Packet {
	p := inj.queue[inj.qHead]
	inj.queue[inj.qHead] = nil
	inj.qHead = (inj.qHead + 1) & (len(inj.queue) - 1)
	inj.qLen--
	return p
}

// ringSize is the span, in router cycles, of the message ring that carries
// every flit arrival and credit return. Their delays are at most one
// bottom-level link period (8 cycles at 1 GHz for the paper's links);
// Validate rejects any configuration whose slowest link period exceeds
// ringSize-1 router cycles, so every message fits.
const ringSize = 64

// arrivalMsg is a flit landing at a router input port. node is the
// destination router, kept so delivery can re-arm it on the active list.
type arrivalMsg struct {
	in   *router.InputPort
	flit *flow.Flit
	node int
}

// creditMsg returns one buffer slot to an upstream output port.
type creditMsg struct {
	out *router.OutputPort
	vc  int
}

// ringBucket holds the messages due in one future router cycle.
type ringBucket struct {
	arrivals []arrivalMsg
	credits  []creditMsg
}

// Network is a runnable simulation instance.
type Network struct {
	Cfg   Config
	Topo  *topology.Cube
	Sched *sim.Scheduler
	Table *link.Table

	Routers []*router.Router
	// Links maps (src node, output port) to the channel's DVS link.
	linkAt [][]*link.DVSLink
	ctls   []*portCtl
	algo   routing.Algorithm

	injectors []*injector
	nextPkt   int64
	cycle     int64

	// pool recycles packet/flit blocks: a delivered packet's storage backs
	// a future injection, so steady-state traffic allocates nothing.
	// Recycling is skipped while an OnDeliver observer is attached, since
	// the observer may legitimately retain delivered packets.
	pool flow.Pool

	// Measurement state (reset by BeginMeasurement).
	Lat       *stats.Latency
	Meter     *power.Meter
	measStart sim.Time
	injected  int64
	delivered int64

	// InFlight tracks packets injected but not yet delivered (for drain
	// checks and deadlock detection in tests).
	InFlight int64

	// Probe, when set, runs every ProbeEvery cycles before the DVS policy
	// (used by the figure harnesses to sample utilizations).
	Probe      func(now sim.Time)
	ProbeEvery int64

	// OnDeliver, when set, observes every delivered packet.
	OnDeliver func(p *flow.Packet)

	// Trace, when non-nil, records packet and DVS events.
	Trace *trace.Buffer

	// ring buffers short-delay flit arrivals and credit returns per due
	// cycle, replacing per-message scheduler events on the hot path.
	ring [ringSize]ringBucket

	// Activity tracking: the simulation core is activity-driven. activeMask
	// marks routers whose state a Tick could change (occupied input VCs or
	// draining output pipelines); Step iterates only set bits, in ascending
	// node order so the event sequence matches the tick-everything baseline
	// exactly. injMask marks nodes whose source injector holds work. Flit
	// arrivals (ring delivery, injection) re-arm a router; the end-of-step
	// sweep retires routers whose Busy predicate went false. With Cfg.NoSkip
	// every bit stays permanently set and both masks degenerate to the
	// original tick-everything loops.
	activeMask  []uint64
	activeCount int
	injMask     []uint64
	injCount    int
	// ringCount totals messages buffered across ring buckets, so the
	// quiescence test is one compare instead of a bucket scan.
	ringCount int
	noskip    bool
	skips     SkipStats

	// aud, when non-nil, is the runtime invariant checker; every hook site
	// nil-checks it so the disabled cost is one pointer compare.
	aud *audit.Checker

	// dvsHold freezes the DVS policies: while held, history windows never
	// close and no link transition can start, so the simulation is
	// policy-independent. Experiment warmups run held, which is what lets a
	// warmed-up state be checkpointed once and forked per policy variant.
	dvsHold bool
	// policiesTouched flips when a policy window closes on any real (non
	// NoDVS) controller — from then on the controllers carry history state a
	// checkpoint does not capture, so capture refuses.
	policiesTouched bool

	// Attached traffic model (Launch). replay is non-nil when the model is
	// a recorded trace, whose resumable walk makes the network
	// checkpointable.
	model   traffic.Model
	horizon sim.Time
	replay  *traffic.Replay
}

// SkipStats measures how much work the activity-driven core avoided. All
// counters cover the network's lifetime.
type SkipStats struct {
	// CyclesExecuted counts router cycles that ran through Step;
	// CyclesFastForwarded counts cycles jumped over while the network was
	// quiescent, in FastForwards distinct jumps. Executed + fast-forwarded
	// equals Cycle().
	CyclesExecuted      int64
	CyclesFastForwarded int64
	FastForwards        int64
	// RouterTicks counts Router.Tick calls performed; RouterTicksElided
	// counts the tick calls the always-tick baseline would have made but
	// the active list or a fast-forward skipped.
	RouterTicks       int64
	RouterTicksElided int64
	// ActiveHist[k] counts executed cycles that ticked exactly k routers.
	ActiveHist []int64
}

// ElisionRatio reports the fraction of baseline router ticks skipped.
func (s SkipStats) ElisionRatio() float64 {
	total := s.RouterTicks + s.RouterTicksElided
	if total == 0 {
		return 0
	}
	return float64(s.RouterTicksElided) / float64(total)
}

// SkipStats reports the activity-driven core's lifetime skip counters.
func (n *Network) SkipStats() SkipStats {
	s := n.skips
	s.ActiveHist = append([]int64(nil), n.skips.ActiveHist...)
	return s
}

// TransitionsInFlight counts DVS links currently mid-transition. Every
// in-flight transition has a completion event pending in the scheduler,
// which is what bounds quiescent fast-forward; this accessor exists for
// observability and the skip-safety assertion in Run.
func (n *Network) TransitionsInFlight() int {
	c := 0
	for _, ctl := range n.ctls {
		if ctl.link.Transitioning() {
			c++
		}
	}
	return c
}

// markActive arms one router on the active list.
func (n *Network) markActive(node int) {
	w, b := node>>6, uint64(1)<<(node&63)
	if n.activeMask[w]&b == 0 {
		n.activeMask[w] |= b
		n.activeCount++
	}
}

// markInject arms one node's source injector.
func (n *Network) markInject(node int) {
	w, b := node>>6, uint64(1)<<(node&63)
	if n.injMask[w]&b == 0 {
		n.injMask[w] |= b
		n.injCount++
	}
}

// New builds the platform.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := topology.New(cfg.K, cfg.N, cfg.Torus)
	table := link.MustTable(cfg.Link)
	algo, err := routing.ByName(cfg.Routing)
	if err != nil {
		return nil, err
	}
	n := &Network{
		Cfg:   cfg,
		Topo:  topo,
		Sched: &sim.Scheduler{},
		Table: table,
		algo:  algo,
	}
	start := cfg.StartLevel
	if start < 0 {
		start = table.Top()
	}

	// Routers.
	for id := 0; id < topo.Nodes(); id++ {
		r, err := router.New(id, cfg.Router)
		if err != nil {
			return nil, err
		}
		id := id
		r.Ref = cfg.RefAllocators
		r.RouteFn = func(p *flow.Packet, buf []routing.MaskCandidate) []routing.MaskCandidate {
			st := routing.State{LastDim: p.LastDim, Wrapped: p.Wrapped}
			return n.algo.RouteMask(topo, id, p.Dst, cfg.Router.VCs, st, buf)
		}
		n.Routers = append(n.Routers, r)
		n.injectors = append(n.injectors, &injector{})
	}

	// Channels: one DVS link per directed channel, plus the policy
	// controller at its source output port.
	n.linkAt = make([][]*link.DVSLink, topo.Nodes())
	for i := range n.linkAt {
		n.linkAt[i] = make([]*link.DVSLink, cfg.Router.Ports)
	}
	for _, ch := range topo.Channels() {
		port := topo.PortFor(ch.Dim, ch.Dir)
		l := link.NewDVSLink(table, n.Sched, start)
		n.linkAt[ch.Src][port] = l
		out := n.Routers[ch.Src].Outputs[port]
		out.Link = l
		n.ctls = append(n.ctls, &portCtl{
			policy: n.newPolicy(), out: out, link: l, node: ch.Src, port: port,
		})
	}

	// Credit return paths: the input port of ch.Dst facing ch reaches back
	// to ch.Src's output port; the credit travels on the reverse channel,
	// so its latency is the reverse link's current serialization period.
	for _, ch := range topo.Channels() {
		ch := ch
		outPort := topo.PortFor(ch.Dim, ch.Dir)
		inPort := topo.PortFor(ch.Dim, 1-ch.Dir) // arriving from the opposite direction
		upstream := n.Routers[ch.Src].Outputs[outPort]
		revPort := topo.PortFor(ch.Dim, 1-ch.Dir)
		rev := n.linkAt[ch.Dst][revPort] // channel ch.Dst -> ch.Src
		n.Routers[ch.Dst].SetCreditReturn(inPort, func(vc int, now sim.Time) {
			delay := n.Cfg.RouterPeriod
			if rev != nil {
				delay = rev.Period()
			}
			n.enqueueCredit(upstream, vc, now+delay)
		})
	}

	n.Lat = stats.NewLatency(cfg.RouterPeriod)
	// Meter links in Links() order — the same order BeginMeasurement uses —
	// so the meter's float summation order never depends on which
	// constructor built it (checkpoint restore relies on the alignment).
	n.Meter = power.NewMeter(table, n.Links(), 0)

	nodes := topo.Nodes()
	words := (nodes + 63) / 64
	n.activeMask = make([]uint64, words)
	n.injMask = make([]uint64, words)
	n.skips.ActiveHist = make([]int64, nodes+1)
	n.noskip = cfg.NoSkip
	if n.noskip {
		// Degenerate masks: every router ticks and every injector is
		// scanned each cycle, exactly the pre-activity-tracking loops.
		for i := 0; i < nodes; i++ {
			n.markActive(i)
			n.markInject(i)
		}
	}

	if cfg.Audit.Enabled {
		n.aud = audit.New(cfg.Audit, audit.Wiring{
			Topo:        topo,
			Routers:     n.Routers,
			LinkAt:      func(node, port int) *link.DVSLink { return n.linkAt[node][port] },
			InFlight:    func() int64 { return n.InFlight },
			WalkTransit: n.walkTransit,
		})
	}
	return n, nil
}

// Auditor reports the runtime invariant checker, or nil when disabled.
func (n *Network) Auditor() *audit.Checker { return n.aud }

// walkTransit shows the audit everything in flight outside router state:
// ring-buffered arrivals and credits, and partially injected packets at
// sources. Queued whole packets have no flits yet and are tracked by the
// audit's own ledger.
func (n *Network) walkTransit(v audit.TransitVisitor) {
	for i := range n.ring {
		b := &n.ring[i]
		for _, a := range b.arrivals {
			v.Flit(a.in, a.flit)
		}
		for _, cm := range b.credits {
			v.Credit(cm.out, cm.vc)
		}
	}
	for node, inj := range n.injectors {
		for _, f := range inj.current {
			v.SourceFlit(node, f)
		}
	}
}

// newPolicy builds one per-port policy instance.
func (n *Network) newPolicy() core.Policy {
	switch n.Cfg.Policy {
	case PolicyHistory:
		p, err := core.NewHistoryDVS(n.Cfg.DVS)
		if err != nil {
			panic(err)
		}
		return p
	case PolicyLinkUtilOnly:
		return &core.LinkUtilOnly{P: n.Cfg.DVS}
	case PolicyAdaptiveThresholds:
		p, err := core.NewAdaptiveThresholds(n.Cfg.DVS)
		if err != nil {
			panic(err)
		}
		return p
	default:
		return core.NoDVS{}
	}
}

// Links returns all DVS links (for instrumentation).
func (n *Network) Links() []*link.DVSLink {
	var out []*link.DVSLink
	for _, row := range n.linkAt {
		for _, l := range row {
			if l != nil {
				out = append(out, l)
			}
		}
	}
	return out
}

// LinkAt returns the channel leaving node via (dim, dir), or nil.
func (n *Network) LinkAt(node, dim int, dir topology.Direction) *link.DVSLink {
	return n.linkAt[node][n.Topo.PortFor(dim, dir)]
}

// Inject enqueues one packet at a source node. It is the traffic.Injector
// for this network.
func (n *Network) Inject(src, dst int, now sim.Time, task int64) {
	if src == dst {
		return
	}
	n.nextPkt++
	p := n.pool.NewPacket(n.nextPkt, src, dst, now, task)
	n.injectors[src].push(p)
	n.markInject(src)
	n.injected++
	n.InFlight++
	if n.aud != nil {
		n.aud.OnInject(p, n.cycle)
	}
	n.Trace.Log(trace.Event{At: now, Kind: trace.PacketInjected, ID: p.ID, A: src, B: dst})
}

// Cycle reports the number of router cycles executed.
func (n *Network) Cycle() int64 { return n.cycle }

// Now reports the current simulation time.
func (n *Network) Now() sim.Time { return n.Sched.Now() }

// Step advances the platform one router cycle: deliver pending events,
// inject, tick the active routers, transmit onto links, eject, and run the
// DVS policy when a history window closes. Routers not on the active list
// are skipped; skipping them is exact, because an idle router's Tick,
// transmit and eject phases are provable no-ops (see Router.Busy).
func (n *Network) Step() {
	now := sim.Time(n.cycle) * n.Cfg.RouterPeriod
	n.Sched.RunUntil(now)
	n.drainRing(now)
	n.injectFlits(now)
	ticked := 0
	for w, word := range n.activeMask {
		base := w << 6
		for word != 0 {
			r := n.Routers[base+bits.TrailingZeros64(word)]
			word &= word - 1
			r.Tick(now, n.Cfg.RouterPeriod)
			ticked++
		}
	}
	n.transmit(now)
	n.eject(now)
	if !n.noskip {
		// Retire routers that went idle this cycle. Their bits re-arm on
		// the next flit arrival (ring delivery or injection).
		for w, word := range n.activeMask {
			base := w << 6
			for word != 0 {
				i := base + bits.TrailingZeros64(word)
				word &= word - 1
				if !n.Routers[i].Busy() {
					n.activeMask[w] &^= 1 << (i & 63)
					n.activeCount--
				}
			}
		}
	}
	n.skips.CyclesExecuted++
	n.skips.RouterTicks += int64(ticked)
	n.skips.RouterTicksElided += int64(len(n.Routers) - ticked)
	n.skips.ActiveHist[ticked]++
	n.cycle++
	if !n.dvsHold && n.cycle%int64(n.Cfg.DVS.H) == 0 {
		n.runPolicies(now)
	}
	if n.Probe != nil && n.ProbeEvery > 0 && n.cycle%n.ProbeEvery == 0 {
		n.Probe(now)
	}
	if n.aud != nil {
		n.aud.EndCycle(n.cycle, now)
	}
}

// Run advances the given number of router cycles. When the platform is
// quiescent — no active routers, no pending injector work, no ring-buffered
// messages — it fast-forwards the cycle counter straight to the next
// interesting edge instead of stepping empty cycles. The jump is exact, not
// approximate: every cycle that could observe or change state (the first
// cycle delivering a scheduler event, each policy-window close, each probe
// tick, each audit scan) still executes with the same cycle number and the
// same simulation instant as in the cycle-by-cycle baseline.
func (n *Network) Run(cycles int64) {
	target := n.cycle + cycles
	for n.cycle < target {
		if !n.noskip && n.activeCount == 0 && n.injCount == 0 && n.ringCount == 0 {
			if c := n.nextInterestingCycle(target); c > n.cycle {
				n.fastForward(c)
				continue
			}
		}
		n.Step()
	}
}

// boundaryFrom reports the smallest cycle c >= from whose Step closes a
// period-`every` window, i.e. (c+1) % every == 0: Step increments the cycle
// counter before testing it against the window length.
func boundaryFrom(from, every int64) int64 {
	return (from+every)/every*every - 1
}

// nextInterestingCycle reports the first cycle at or after the current one
// that must execute while the network is quiescent: the cycle whose
// RunUntil delivers the earliest pending scheduler event (traffic
// injections and DVS transition completions live there), the next DVS
// policy-window close, the next probe tick, and the next audit scan.
// Everything in between is provably empty: no router state, link window,
// energy ledger or occupancy integral changes on those cycles (the lazily
// accrued quantities integrate over the jump exactly).
// The result is clamped to target, the end of the current Run.
func (n *Network) nextInterestingCycle(target int64) int64 {
	next := target
	if n.Sched.Pending() > 0 {
		if c := n.dueCycle(n.Sched.PeekTime()); c < next {
			next = c
		}
	}
	if n.Cfg.Policy != PolicyNone && !n.dvsHold {
		// With PolicyNone every controller is core.NoDVS and runPolicies is
		// a no-op, so window closes need not execute; the same holds while
		// the policies are frozen by a DVS hold.
		if c := boundaryFrom(n.cycle, int64(n.Cfg.DVS.H)); c < next {
			next = c
		}
	}
	if n.Probe != nil && n.ProbeEvery > 0 {
		if c := boundaryFrom(n.cycle, n.ProbeEvery); c < next {
			next = c
		}
	}
	if n.aud != nil {
		if c := boundaryFrom(n.cycle, n.aud.ScanEvery()); c < next {
			next = c
		}
	}
	if next < n.cycle {
		next = n.cycle
	}
	return next
}

// fastForward jumps the cycle counter to c and advances the scheduler clock
// to the last skipped cycle edge, exactly where cycle-by-cycle stepping
// would have left it. No scheduler event can fire in the jumped span: c is
// bounded by the due cycle of the earliest pending event.
func (n *Network) fastForward(c int64) {
	skipped := c - n.cycle
	n.skips.CyclesFastForwarded += skipped
	n.skips.FastForwards++
	n.skips.RouterTicksElided += skipped * int64(len(n.Routers))
	n.cycle = c
	if ran := n.Sched.RunUntil(sim.Time(c-1) * n.Cfg.RouterPeriod); ran != 0 {
		panic(fmt.Sprintf("network: fast-forward to cycle %d ran %d events — jump bound broken", c, ran))
	}
}

// dueCycle converts an absolute due instant to the router cycle whose Step
// will deliver it: the first cycle edge at or after the instant.
func (n *Network) dueCycle(at sim.Time) int64 {
	p := n.Cfg.RouterPeriod
	return int64((at + p - 1) / p)
}

// bucket returns the ring bucket for a message due at the given instant.
// Validate bounds every delay below the ring span, so a message due
// further ahead is a simulator bug.
func (n *Network) bucket(at sim.Time) *ringBucket {
	due := n.dueCycle(at)
	if due-n.cycle >= ringSize {
		panic("network: message due beyond the ring span; Config.Validate bounds every link period below it")
	}
	return &n.ring[due%ringSize]
}

// enqueueArrival buffers a flit delivery at node's input port due at the
// given instant; delivery re-arms the destination router.
func (n *Network) enqueueArrival(node int, in *router.InputPort, f *flow.Flit, at sim.Time) {
	b := n.bucket(at)
	b.arrivals = append(b.arrivals, arrivalMsg{in: in, flit: f, node: node})
	n.ringCount++
}

// enqueueCredit buffers a credit return due at the given instant. Credits
// need no active-list re-arm: a credit only unblocks a router that already
// holds flits waiting to traverse, and such a router is busy by definition.
func (n *Network) enqueueCredit(out *router.OutputPort, vc int, at sim.Time) {
	b := n.bucket(at)
	b.credits = append(b.credits, creditMsg{out: out, vc: vc})
	n.ringCount++
}

// drainRing delivers the messages due this cycle and re-arms the routers
// that received flits.
func (n *Network) drainRing(now sim.Time) {
	b := &n.ring[n.cycle%ringSize]
	n.ringCount -= len(b.arrivals) + len(b.credits)
	for i, a := range b.arrivals {
		n.markActive(a.node)
		a.in.Arrive(a.flit, now)
		b.arrivals[i] = arrivalMsg{}
	}
	b.arrivals = b.arrivals[:0]
	for i, c := range b.credits {
		c.out.ReturnCredit(c.vc, now)
		b.credits[i] = creditMsg{}
	}
	b.credits = b.credits[:0]
}

// injectFlits moves source-queue flits into local input buffers: one flit
// per node per cycle, packets contiguous per VC. Only nodes on the
// injector mask are visited; a node leaves the mask when both its queue
// and its in-progress flit train are empty.
func (n *Network) injectFlits(now sim.Time) {
	for w, word := range n.injMask {
		base := w << 6
		for word != 0 {
			node := base + bits.TrailingZeros64(word)
			word &= word - 1
			inj := n.injectors[node]
			n.injectOne(node, inj, now)
			if !n.noskip && len(inj.current) == 0 && inj.qLen == 0 {
				n.injMask[w] &^= 1 << (node & 63)
				n.injCount--
			}
		}
	}
}

// injectOne advances one node's injector by at most one flit.
func (n *Network) injectOne(node int, inj *injector, now sim.Time) {
	in := n.Routers[node].Inputs[topology.LocalPort]
	if len(inj.current) == 0 {
		if inj.qLen == 0 {
			return
		}
		// Pick the VC with the most free space for the next packet.
		best, bestFree := -1, 0
		for vc := 0; vc < n.Cfg.Router.VCs; vc++ {
			if f := in.Free(vc); f > bestFree {
				best, bestFree = vc, f
			}
		}
		if best < 0 || bestFree < 1 {
			return
		}
		p := inj.pop()
		p.Injected = now
		inj.current = n.pool.Flits(p)
		inj.vc = best
		if n.aud != nil {
			n.aud.OnSourceDequeue(p, n.cycle)
		}
	}
	if in.Free(inj.vc) < 1 {
		return
	}
	f := inj.current[0]
	inj.current = inj.current[1:]
	f.VC = inj.vc
	n.markActive(node)
	in.Arrive(f, now)
}

// transmit drains output pipelines onto functional, idle links, scheduling
// flit arrival at the downstream router after serialization. Only active
// routers are visited: a router with queued tx entries is busy by
// definition, and the deactivation sweep runs after this phase.
func (n *Network) transmit(now sim.Time) {
	for w, word := range n.activeMask {
		base := w << 6
		for word != 0 {
			node := base + bits.TrailingZeros64(word)
			word &= word - 1
			n.transmitNode(node, now)
		}
	}
}

// transmitNode drains one router's output pipelines onto its links. The
// router's tx port mask names exactly the ports with queued entries, in
// ascending port order, so empty ports cost nothing.
func (n *Network) transmitNode(node int, now sim.Time) {
	r := n.Routers[node]
	for mask := r.TxPortMask() &^ 1; mask != 0; mask &= mask - 1 {
		port := bits.TrailingZeros32(mask)
		out := r.Outputs[port]
		l := out.Link
		if l == nil {
			continue
		}
		front := out.TxFront()
		if front.ReadyAt() > now || !l.CanSend(now) {
			continue
		}
		out.PopTx()
		f := front.Flit()
		if n.aud != nil {
			n.aud.OnLinkSend(node, port, l, f, now, n.cycle)
		}
		d := l.Send(now)

		dim, dir := n.Topo.DimDir(port)
		dst, ok := n.Topo.Neighbor(node, dim, dir)
		if !ok {
			panic("network: flit routed off the mesh edge")
		}
		if f.Kind == flow.Head {
			// Advance dateline state as the head crosses the channel.
			cx := n.Topo.Coord(node, dim)
			wrap := n.Topo.Torus() &&
				((dir == topology.Plus && cx == n.Topo.K()-1) ||
					(dir == topology.Minus && cx == 0))
			st := routing.State{LastDim: f.Packet.LastDim, Wrapped: f.Packet.Wrapped}
			st = st.Advance(dim, wrap)
			f.Packet.LastDim, f.Packet.Wrapped = st.LastDim, st.Wrapped
		}
		inPort := n.Topo.PortFor(dim, 1-dir)
		n.enqueueArrival(dst, n.Routers[dst].Inputs[inPort], f, now+d)
	}
}

// eject drains local output pipelines: every ready flit leaves immediately
// (the paper assumes immediate ejection), and tails complete packets. Like
// transmit, it only visits active routers: queued ejection flits keep a
// router busy until this phase drains them.
func (n *Network) eject(now sim.Time) {
	for w, word := range n.activeMask {
		base := w << 6
		for word != 0 {
			node := base + bits.TrailingZeros64(word)
			word &= word - 1
			n.ejectNode(n.Routers[node], now)
		}
	}
}

// ejectNode drains one router's local output pipeline.
func (n *Network) ejectNode(r *router.Router, now sim.Time) {
	if r.LocalTxQueued() == 0 {
		return
	}
	out := r.Outputs[topology.LocalPort]
	for out.QueuedTx() > 0 && out.TxFront().ReadyAt() <= now {
		e := out.PopTx()
		f := e.Flit()
		if n.aud != nil {
			n.aud.OnEject(f, r.ID, n.cycle)
		}
		if f.Kind != flow.Tail {
			continue
		}
		p := f.Packet
		p.Delivered = now
		n.InFlight--
		n.Trace.Log(trace.Event{At: now, Kind: trace.PacketDelivered,
			ID: p.ID, A: p.Src, B: p.Dst, C: int64(p.Latency())})
		if p.Created >= n.measStart {
			n.Lat.Add(p.Latency())
			n.delivered++
		}
		if n.aud != nil {
			n.aud.OnDeliver(p, n.cycle)
		}
		if n.OnDeliver != nil {
			n.OnDeliver(p)
		} else {
			// The last reference to the packet and its flits just died (the
			// audit ledgers key by ID and dropped theirs in OnDeliver, and
			// trace/latency records copy values), so the block can back a
			// future injection.
			n.pool.Recycle(p)
		}
	}
}

// SetDVSHold freezes (true) or releases (false) the DVS policies. While
// held, no history window closes and no link transition can start, so the
// run is independent of the configured policy and thresholds. Releasing
// the hold drains every policy-visible window (link utilization, output
// occupancy integrals, input buffer-age windows) so the first live window
// covers only post-release activity, deterministically — an uninterrupted
// held warmup and a checkpoint-forked one release into identical state.
func (n *Network) SetDVSHold(hold bool) {
	if n.dvsHold == hold {
		return
	}
	n.dvsHold = hold
	if hold {
		return
	}
	now := n.Now()
	for _, c := range n.ctls {
		c.link.TakeUtilization(now)
		c.out.TakeOccupancyIntegral(now)
	}
	for _, r := range n.Routers {
		for _, in := range r.Inputs {
			in.TakeAgeWindow()
		}
	}
}

// DVSHold reports whether the DVS policies are frozen.
func (n *Network) DVSHold() bool { return n.dvsHold }

// runPolicies closes one history window on every controlled port.
func (n *Network) runPolicies(now sim.Time) {
	window := sim.Duration(n.Cfg.DVS.H) * n.Cfg.RouterPeriod
	for _, c := range n.ctls {
		if _, fixed := c.policy.(core.NoDVS); fixed {
			// The baseline never moves; leave the utilization and occupancy
			// windows to instrumentation probes.
			continue
		}
		n.policiesTouched = true
		busy, dead := c.link.TakeUtilization(now)
		lu := core.LinkUtilization(busy, window-dead)
		bu := core.BufferUtilization(c.out.TakeOccupancyIntegral(now), c.out.TotalSlots(), window)
		switch c.policy.Decide(core.Measures{LinkUtil: lu, BufUtil: bu}) {
		case core.Raise:
			n.Trace.Log(trace.Event{At: now, Kind: trace.PolicyDecision, A: c.node, B: c.port, C: 1})
			if c.link.RequestStep(now, true) {
				n.Trace.Log(trace.Event{At: now, Kind: trace.LinkTransition,
					A: c.node, B: c.port, C: int64(c.link.TargetLevel())})
			}
		case core.Lower:
			n.Trace.Log(trace.Event{At: now, Kind: trace.PolicyDecision, A: c.node, B: c.port, C: -1})
			if c.link.RequestStep(now, false) {
				n.Trace.Log(trace.Event{At: now, Kind: trace.LinkTransition,
					A: c.node, B: c.port, C: int64(c.link.TargetLevel())})
			}
		}
	}
}

// BeginMeasurement resets latency/power/throughput accounting at the
// current instant; packets created earlier are excluded from latency and
// throughput statistics.
func (n *Network) BeginMeasurement() {
	now := n.Now()
	n.measStart = now
	n.Lat = stats.NewLatency(n.Cfg.RouterPeriod)
	n.Meter = power.NewMeter(n.Table, n.Links(), now)
	n.delivered = 0
	n.injected = 0
}

// Results summarizes a measurement interval.
type Results struct {
	Cycles         int64
	InjectedPkts   int64
	DeliveredPkts  int64
	MeanLatency    float64 // router cycles
	P50Latency     float64 // median latency, router cycles
	P99Latency     float64 // tail latency, router cycles
	ThroughputPkts float64 // packets per cycle, network-wide
	AvgPowerW      float64
	NormalizedPwr  float64
	SavingsX       float64
}

// Snapshot reports results accumulated since BeginMeasurement.
func (n *Network) Snapshot() Results {
	now := n.Now()
	cycles := int64((now - n.measStart) / n.Cfg.RouterPeriod)
	var thr float64
	if cycles > 0 {
		thr = float64(n.delivered) / float64(cycles)
	}
	return Results{
		Cycles:         cycles,
		InjectedPkts:   n.injected,
		DeliveredPkts:  n.delivered,
		MeanLatency:    n.Lat.MeanCycles(),
		P50Latency:     n.Lat.Quantile(0.5),
		P99Latency:     n.Lat.Quantile(0.99),
		ThroughputPkts: thr,
		AvgPowerW:      n.Meter.AvgPowerW(now),
		NormalizedPwr:  n.Meter.Normalized(now),
		SavingsX:       n.Meter.Savings(now),
	}
}

// Launch attaches a traffic model from now until horizon. A recorded trace
// (*traffic.Trace) attaches through its resumable replay handle, which is
// what makes the network checkpointable; live models drive the scheduler
// directly through opaque event chains and cannot be captured.
func (n *Network) Launch(m traffic.Model, horizon sim.Time) {
	n.model, n.horizon = m, horizon
	if tr, ok := m.(*traffic.Trace); ok {
		n.replay = tr.LaunchReplay(n.Sched, horizon, n.Inject)
		return
	}
	m.Launch(n.Sched, horizon, n.Inject)
}
