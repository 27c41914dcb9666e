package link

import (
	"fmt"

	"repro/internal/sim"
)

// State is the operating condition of a DVS link.
type State uint8

const (
	// Functional: the link relays flits at the current level.
	Functional State = iota
	// VoltRamping: the regulator is moving the supply voltage; the link
	// keeps relaying flits at its current frequency.
	VoltRamping
	// FreqLocking: the receiver is re-locking to a new clock; the link is
	// dead and relays nothing.
	FreqLocking
)

func (s State) String() string {
	switch s {
	case Functional:
		return "functional"
	case VoltRamping:
		return "volt-ramping"
	case FreqLocking:
		return "freq-locking"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// DVSLink is one directed network channel under dynamic voltage scaling:
// eight serial links moved together by a shared regulator. It tracks its
// own clock domain, transition state machine, utilization window and
// energy ledger.
//
// All methods take the current simulation time; the link accrues energy
// lazily so idle links cost no per-cycle work.
type DVSLink struct {
	table *Table
	sched *sim.Scheduler

	level  int     // operating level (frequency the link currently runs at)
	volt   float64 // present supply voltage (tracks transitions conservatively)
	state  State
	target int // level being transitioned to (== level when Functional)
	from   int // level the in-flight transition started from

	busyUntil sim.Time // serialization: one flit occupies the channel per link clock
	deadUntil sim.Time // end of the current frequency-locking interval

	// Utilization window accounting for the DVS policy (paper Eq. 2): busy
	// and dead (frequency-locking) picoseconds since the window was last
	// taken. The policy divides busy by functional time, because no link
	// clock cycles exist while the receiver is re-locking.
	windowBusy sim.Duration
	windowDead sim.Duration
	deadStart  sim.Time

	// Energy ledger.
	lastAccrued      sim.Time
	energyJ          float64
	transitionEnergy float64
	transitions      int
	timeAtLevel      []sim.Duration
	flitsSent        int64

	// Dispatch key of the in-flight transition's pending completion event.
	// A checkpoint restore re-arms the event under the same key so the
	// forked scheduler dispatches it in the original order.
	pendAt  sim.Time
	pendSeq int64
}

// NewDVSLink returns a link at startLevel. sched drives transition
// completion events.
func NewDVSLink(t *Table, sched *sim.Scheduler, startLevel int) *DVSLink {
	if startLevel < 0 || startLevel >= t.Params.Levels {
		panic(fmt.Sprintf("link: start level %d outside [0,%d)", startLevel, t.Params.Levels))
	}
	return &DVSLink{
		table:       t,
		sched:       sched,
		level:       startLevel,
		volt:        t.Volt[startLevel],
		target:      startLevel,
		lastAccrued: sched.Now(),
		timeAtLevel: make([]sim.Duration, t.Params.Levels),
	}
}

// Table reports the level table the link was built with.
func (l *DVSLink) Table() *Table { return l.table }

// Level reports the current operating level.
func (l *DVSLink) Level() int { return l.level }

// TargetLevel reports the level of an in-flight transition (== Level when
// not transitioning).
func (l *DVSLink) TargetLevel() int { return l.target }

// State reports the link's operating condition.
func (l *DVSLink) State() State { return l.state }

// Volt reports the present supply voltage. During a transition it tracks
// the regulator conservatively (the voltage of whichever endpoint level is
// higher while the frequency change is in flight).
func (l *DVSLink) Volt() float64 { return l.volt }

// TransitionFrom reports the level the in-flight transition started from;
// stale once the link returns to Functional. Exposed for the runtime
// invariant audit (internal/audit).
func (l *DVSLink) TransitionFrom() int { return l.from }

// Transitioning reports whether a level change is in flight. Every
// in-flight transition keeps a completion event pending in the scheduler,
// so the network's quiescent fast-forward can never jump past a
// transition edge: the pending event bounds the jump.
func (l *DVSLink) Transitioning() bool { return l.state != Functional }

// Period reports the current link clock period — also the serialization
// time of one flit, since the channel moves one flit per link clock.
func (l *DVSLink) Period() sim.Duration { return l.table.Period[l.level] }

// CanSend reports whether a flit could start crossing the link at now: the
// link must be functional and the previous flit must have cleared.
func (l *DVSLink) CanSend(now sim.Time) bool {
	return l.state != FreqLocking && now >= l.busyUntil
}

// Send starts a flit across the link at now and returns the serialization
// delay after which it arrives downstream. The caller must have checked
// CanSend.
func (l *DVSLink) Send(now sim.Time) sim.Duration {
	if !l.CanSend(now) {
		panic("link: Send while busy or dead")
	}
	p := l.Period()
	l.busyUntil = now + p
	l.windowBusy += p
	l.flitsSent++
	return p
}

// TakeUtilization returns the busy serialization time and the dead
// (frequency-locking) time accumulated since the previous call, and resets
// the window. The DVS policy computes the paper's link utilization LU as
// busy over functional time — dead time contributes no link clock cycles
// to Eq. 2's denominator.
func (l *DVSLink) TakeUtilization(now sim.Time) (busy, dead sim.Duration) {
	if l.state == FreqLocking && now > l.deadStart {
		l.windowDead += now - l.deadStart
		l.deadStart = now
	}
	b, d := l.windowBusy, l.windowDead
	l.windowBusy, l.windowDead = 0, 0
	return b, d
}

// RequestStep starts a one-level transition (up = faster) and reports
// whether it was accepted. Requests are refused while another transition is
// in flight or at the range ends. Per the paper's model:
//
//	speeding up: voltage ramps first (link functional), then the frequency
//	             locks (link dead);
//	slowing down: the frequency locks first (link dead), then the voltage
//	             ramps down (link functional at the new, lower frequency).
func (l *DVSLink) RequestStep(now sim.Time, up bool) bool {
	if l.state != Functional {
		return false
	}
	target := l.level - 1
	if up {
		target = l.level + 1
	}
	if target < 0 || target >= l.table.Params.Levels {
		return false
	}
	l.accrue(now)
	l.from = l.level
	l.target = target
	l.transitions++
	if up {
		// Voltage first. Conservatively burn power at the higher voltage
		// for the whole ramp.
		l.state = VoltRamping
		l.volt = l.table.Volt[target]
		l.pendAt = now + l.table.Params.VoltTransition
		l.pendSeq = l.sched.At(l.pendAt, l.voltRampDone)
	} else {
		l.startFreqLock(now)
	}
	return true
}

// startFreqLock begins the receiver re-lock interval at the target
// frequency; the link operates at the target frequency once the lock
// completes, and is dead meanwhile.
func (l *DVSLink) startFreqLock(now sim.Time) {
	l.accrue(now)
	l.state = FreqLocking
	l.deadStart = now
	dead := sim.Duration(l.table.Params.FreqTransitionCycles) * l.table.Period[l.target]
	l.deadUntil = now + dead
	l.pendAt = l.deadUntil
	l.pendSeq = l.sched.At(l.deadUntil, l.freqLockDone)
}

// voltRampDone finishes the voltage phase of an upward transition and
// starts the frequency lock.
func (l *DVSLink) voltRampDone() {
	now := l.sched.Now()
	l.accrue(now)
	l.chargeTransition()
	l.startFreqLock(now)
}

// freqLockDone finishes a frequency lock. Upward transitions are complete;
// downward transitions continue with the voltage ramp.
func (l *DVSLink) freqLockDone() {
	now := l.sched.Now()
	l.accrue(now)
	if now > l.deadStart {
		l.windowDead += now - l.deadStart
		l.deadStart = now
	}
	goingUp := l.target > l.level
	l.level = l.target
	if l.busyUntil < now {
		l.busyUntil = now
	}
	if goingUp {
		l.state = Functional
		return
	}
	// Slowing down: ramp the voltage down now; the link keeps relaying at
	// the new frequency while the regulator discharges.
	l.state = VoltRamping
	l.pendAt = now + l.table.Params.VoltTransition
	l.pendSeq = l.sched.At(l.pendAt, l.voltDownDone)
}

// voltDownDone completes a downward transition.
func (l *DVSLink) voltDownDone() {
	l.accrue(l.sched.Now())
	l.chargeTransition()
	l.volt = l.table.Volt[l.level]
	l.state = Functional
}

// chargeTransition books the Stratakos regulator overhead for the voltage
// swing between the pre- and post-transition levels.
func (l *DVSLink) chargeTransition() {
	e := l.table.TransitionEnergyJ(l.from, l.target)
	l.energyJ += e
	l.transitionEnergy += e
}

// PowerW reports instantaneous channel power: the fitted model evaluated at
// the present (voltage, frequency) operating point. During transitions the
// voltage is held at the higher of the two levels' voltages, which is
// conservative in exactly the way the paper's assumptions are.
func (l *DVSLink) PowerW() float64 {
	return l.table.ChannelPowerAt(l.volt, l.table.FreqHz[l.level])
}

// accrue integrates energy up to now.
func (l *DVSLink) accrue(now sim.Time) {
	if now <= l.lastAccrued {
		return
	}
	dt := now - l.lastAccrued
	l.energyJ += l.PowerW() * dt.Seconds()
	l.timeAtLevel[l.level] += dt
	l.lastAccrued = now
}

// EnergyJ reports total channel energy (operating + transition overhead)
// accrued through now.
func (l *DVSLink) EnergyJ(now sim.Time) float64 {
	l.accrue(now)
	return l.energyJ
}

// Stats is a snapshot of a link's lifetime counters.
type Stats struct {
	Level            int
	State            State
	FlitsSent        int64
	Transitions      int
	EnergyJ          float64
	TransitionEnergy float64
	TimeAtLevel      []sim.Duration
}

// CheckpointState is the complete serializable state of one DVS link:
// level/voltage/state machine, serialization and dead-time clocks, the
// utilization window, the energy ledger, and the dispatch key of the
// pending transition-completion event (zero when Functional). Restoring it
// into a fresh link on a fresh scheduler reproduces the original link's
// behaviour exactly.
type CheckpointState struct {
	Level  int
	Target int
	From   int
	State  State
	Volt   float64

	BusyUntil sim.Time
	DeadUntil sim.Time
	DeadStart sim.Time

	WindowBusy sim.Duration
	WindowDead sim.Duration

	LastAccrued      sim.Time
	EnergyJ          float64
	TransitionEnergy float64
	Transitions      int
	TimeAtLevel      []sim.Duration
	FlitsSent        int64

	PendAt  sim.Time
	PendSeq int64
}

// Checkpoint captures the link's complete state without accruing energy:
// the lazy ledger is part of the state, so capture must not touch it or a
// forked run would accrue a window the straight run accrues later.
func (l *DVSLink) Checkpoint() CheckpointState {
	tl := make([]sim.Duration, len(l.timeAtLevel))
	copy(tl, l.timeAtLevel)
	return CheckpointState{
		Level:            l.level,
		Target:           l.target,
		From:             l.from,
		State:            l.state,
		Volt:             l.volt,
		BusyUntil:        l.busyUntil,
		DeadUntil:        l.deadUntil,
		DeadStart:        l.deadStart,
		WindowBusy:       l.windowBusy,
		WindowDead:       l.windowDead,
		LastAccrued:      l.lastAccrued,
		EnergyJ:          l.energyJ,
		TransitionEnergy: l.transitionEnergy,
		Transitions:      l.transitions,
		TimeAtLevel:      tl,
		FlitsSent:        l.flitsSent,
		PendAt:           l.pendAt,
		PendSeq:          l.pendSeq,
	}
}

// Restore overwrites the link's state with a checkpoint and, when a
// transition is in flight, re-arms the pending completion event under its
// captured dispatch key. Which callback to arm is fully determined by the
// state machine: FreqLocking always waits for freqLockDone; VoltRamping
// waits for voltRampDone while the level still differs from the target
// (upward, voltage phase) and for voltDownDone once they agree (downward,
// final ramp). The scheduler's sequence counter must already cover PendSeq
// (see sim.Scheduler.SetSeqCounter).
func (l *DVSLink) Restore(st CheckpointState) error {
	levels := l.table.Params.Levels
	if st.Level < 0 || st.Level >= levels {
		return fmt.Errorf("link: restore level %d outside [0,%d)", st.Level, levels)
	}
	if st.Target < 0 || st.Target >= levels {
		return fmt.Errorf("link: restore target %d outside [0,%d)", st.Target, levels)
	}
	if st.From < 0 || st.From >= levels {
		return fmt.Errorf("link: restore from-level %d outside [0,%d)", st.From, levels)
	}
	if st.State > FreqLocking {
		return fmt.Errorf("link: restore with unknown state %d", uint8(st.State))
	}
	if len(st.TimeAtLevel) != levels {
		return fmt.Errorf("link: restore with %d per-level durations, want %d", len(st.TimeAtLevel), levels)
	}
	if st.State == Functional != (st.PendSeq == 0) {
		return fmt.Errorf("link: restore state %v inconsistent with pending seq %d", st.State, st.PendSeq)
	}
	l.level = st.Level
	l.target = st.Target
	l.from = st.From
	l.state = st.State
	l.volt = st.Volt
	l.busyUntil = st.BusyUntil
	l.deadUntil = st.DeadUntil
	l.deadStart = st.DeadStart
	l.windowBusy = st.WindowBusy
	l.windowDead = st.WindowDead
	l.lastAccrued = st.LastAccrued
	l.energyJ = st.EnergyJ
	l.transitionEnergy = st.TransitionEnergy
	l.transitions = st.Transitions
	copy(l.timeAtLevel, st.TimeAtLevel)
	l.flitsSent = st.FlitsSent
	l.pendAt = st.PendAt
	l.pendSeq = st.PendSeq
	switch {
	case l.state == Functional:
	case l.state == FreqLocking:
		l.sched.AtSeq(l.pendAt, l.pendSeq, l.freqLockDone)
	case l.target != l.level:
		l.sched.AtSeq(l.pendAt, l.pendSeq, l.voltRampDone)
	default:
		l.sched.AtSeq(l.pendAt, l.pendSeq, l.voltDownDone)
	}
	return nil
}

// StatsAt reports the link's counters accrued through now.
func (l *DVSLink) StatsAt(now sim.Time) Stats {
	l.accrue(now)
	tl := make([]sim.Duration, len(l.timeAtLevel))
	copy(tl, l.timeAtLevel)
	return Stats{
		Level:            l.level,
		State:            l.state,
		FlitsSent:        l.flitsSent,
		Transitions:      l.transitions,
		EnergyJ:          l.energyJ,
		TransitionEnergy: l.transitionEnergy,
		TimeAtLevel:      tl,
	}
}
