package main

import (
	"fmt"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs,
// computed as Python's statistics.quantiles(xs, n=4) does (the exclusive
// method). One value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// Verdicts of one metric's comparison between a parent and a change.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a change's runs of one metric with its parent's. The
// change regresses when its median is worse than the parent's by more than
// bound, a share of the parent's median. When either side's own spread is
// wider than bound the comparison cannot resolve a regression of that size
// and says so, unless every run of the change beats every run of the
// parent.
func judge(parent, change []float64, bound float64, lowerIsBetter bool) (verdict, detail string) {
	pm, cm := median(parent), median(change)
	worse := (cm - pm) / pm
	if !lowerIsBetter {
		worse = -worse
	}
	ps, cs := spread(parent), spread(change)
	detail = fmt.Sprintf("parent median %.6g (spread %.3f), change median %.6g (spread %.3f), worse by %+.3f, bound %.3f",
		pm, ps, cm, cs, worse, bound)
	switch {
	case ps > bound || cs > bound:
		if allBetter(parent, change, lowerIsBetter) {
			return verdictOK, detail
		}
		return verdictUnresolved, detail
	case worse > bound:
		return verdictRegressed, detail
	}
	return verdictOK, detail
}

// allBetter reports whether every change run beats every parent run.
func allBetter(parent, change []float64, lowerIsBetter bool) bool {
	for _, p := range parent {
		for _, c := range change {
			if (lowerIsBetter && c >= p) || (!lowerIsBetter && c <= p) {
				return false
			}
		}
	}
	return true
}
