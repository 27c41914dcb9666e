// Package power carries the power accounting of the evaluation: the static
// router power breakdown behind the paper's Figure 7, and the network-level
// aggregation used to normalize DVS power against the non-DVS baseline.
//
// The paper characterizes its router by synthesizing a Verilog description
// to a TSMC 0.25 um netlist and measuring with Synopsys Power Compiler; the
// published result is a breakdown in which the channel's link circuitry
// consumes 82.4% of router power and the allocators a negligible 81 mW. The
// paper then *ignores router-core power* in the DVS experiments because it
// barely varies with link speed. We encode the same breakdown as data.
package power

import (
	"fmt"

	"repro/internal/link"
	"repro/internal/sim"
)

// BreakdownEntry is one slice of the router power distribution.
type BreakdownEntry struct {
	Component string
	Watts     float64
}

// RouterBreakdown reconstructs Figure 7 for a router with the given number
// of network ports, each driving a channel at full speed.
//
// The link share is exact from the link model (ports x SerialLinks x
// MaxPowerW). The paper pins the allocators at 81 mW and the link share at
// 82.4%; the remaining core power is split across buffers, crossbar and
// clock in proportions consistent with the paper's 128-flit-deep input
// buffers dominating the core.
func RouterBreakdown(t *link.Table, ports int) []BreakdownEntry {
	linksW := float64(ports) * t.PowerW[t.Top()]
	totalW := linksW / 0.824
	coreW := totalW - linksW
	const allocW = 0.081
	rest := coreW - allocW
	return []BreakdownEntry{
		{"links", linksW},
		{"input buffers", rest * 0.68},
		{"crossbar", rest * 0.25},
		{"clock", rest * 0.07},
		{"allocators", allocW},
	}
}

// Total sums a breakdown.
func Total(entries []BreakdownEntry) float64 {
	s := 0.0
	for _, e := range entries {
		s += e.Watts
	}
	return s
}

// Fraction reports a component's share of the breakdown total.
func Fraction(entries []BreakdownEntry, component string) float64 {
	t := Total(entries)
	if t == 0 {
		return 0
	}
	for _, e := range entries {
		if e.Component == component {
			return e.Watts / t
		}
	}
	return 0
}

// Meter aggregates the energy of a set of DVS links into network power
// metrics and the normalized figures the paper plots.
type Meter struct {
	links []*link.DVSLink
	table *link.Table

	epoch sim.Time  // measurement start
	base  []float64 // per-link energy at the epoch
}

// NewMeter begins measuring the given links at time epoch.
func NewMeter(t *link.Table, links []*link.DVSLink, epoch sim.Time) *Meter {
	m := &Meter{links: links, table: t, epoch: epoch, base: make([]float64, len(links))}
	for i, l := range links {
		m.base[i] = l.EnergyJ(epoch)
	}
	return m
}

// MeterState is the complete serializable state of a Meter: the measurement
// epoch and the per-link energy baselines, in the meter's link order. The
// links themselves checkpoint separately.
type MeterState struct {
	Epoch sim.Time
	Base  []float64
}

// Checkpoint captures the meter's state.
func (m *Meter) Checkpoint() MeterState {
	base := make([]float64, len(m.base))
	copy(base, m.base)
	return MeterState{Epoch: m.epoch, Base: base}
}

// Restore overwrites the meter's epoch and baselines with a checkpoint. The
// meter must already aggregate the same number of links in the same order.
func (m *Meter) Restore(st MeterState) error {
	if len(st.Base) != len(m.base) {
		return fmt.Errorf("power: meter restore with %d baselines, want %d", len(st.Base), len(m.base))
	}
	m.epoch = st.Epoch
	copy(m.base, st.Base)
	return nil
}

// EnergyJ reports total link energy consumed since the epoch, through now.
func (m *Meter) EnergyJ(now sim.Time) float64 {
	e := 0.0
	for i, l := range m.links {
		e += l.EnergyJ(now) - m.base[i]
	}
	return e
}

// AvgPowerW reports mean network link power over [epoch, now].
func (m *Meter) AvgPowerW(now sim.Time) float64 {
	dt := (now - m.epoch).Seconds()
	if dt <= 0 {
		return 0
	}
	return m.EnergyJ(now) / dt
}

// BaselinePowerW reports the non-DVS network power: every channel at the
// top level continuously (the paper's 64 routers * 4 ports * 8 links *
// 0.2 W = 409.6 W for the full-bandwidth 8x8 mesh estimate; this uses the
// actual channel count of the constructed topology).
func (m *Meter) BaselinePowerW() float64 {
	return float64(len(m.links)) * m.table.PowerW[m.table.Top()]
}

// Normalized reports DVS power as a fraction of the non-DVS baseline — the
// y-axis of Figures 10(b), 11(b) and 14.
func (m *Meter) Normalized(now sim.Time) float64 {
	b := m.BaselinePowerW()
	if b == 0 {
		return 0
	}
	return m.AvgPowerW(now) / b
}

// Savings reports the power saving factor ("X") the paper headlines:
// baseline power over measured power.
func (m *Meter) Savings(now sim.Time) float64 {
	p := m.AvgPowerW(now)
	if p == 0 {
		return 0
	}
	return m.BaselinePowerW() / p
}

// InstantPowerW reports the sum of instantaneous link powers.
func (m *Meter) InstantPowerW() float64 {
	p := 0.0
	for _, l := range m.links {
		p += l.PowerW()
	}
	return p
}
