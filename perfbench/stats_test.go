package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 90, true},
		{999, 90, true},
		{1000, 90, true},
		{9999, 90, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && math.Floor(float64(c.n)*(100-got)/100+1e-9) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%g leaves fewer than %d samples beyond", c.n, got, minBeyond)
		}
	}
}

func TestQuantileHarrellDavis(t *testing.T) {
	same := []float64{4, 4, 4, 4, 4}
	if got := median(same); math.Abs(got-4) > 1e-9 {
		t.Errorf("median of constants = %g, want 4", got)
	}
	// 1..n is symmetric about (n+1)/2, so the Harrell-Davis median is exact.
	var seq []float64
	for i := 1; i <= 101; i++ {
		seq = append(seq, float64(i))
	}
	if got := median(seq); math.Abs(got-51) > 1e-6 {
		t.Errorf("median of 1..101 = %g, want 51", got)
	}
	// Input order must not matter, and quantiles rise with q inside the range.
	shuffled := append([]float64(nil), seq...)
	sort.Sort(sort.Reverse(sort.Float64Slice(shuffled)))
	prev := math.Inf(-1)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		got := quantile(shuffled, q)
		if got < 1 || got > 101 || got <= prev {
			t.Errorf("quantile(%g) = %g after %g: want increasing within [1, 101]", q, got, prev)
		}
		prev = got
	}
	// Whole-millisecond samples split between two groups: the estimate
	// falls between the groups instead of jumping to either one.
	grouped := []float64{10, 10, 10, 10, 12, 12, 12, 12}
	if got := median(grouped); got <= 10 || got >= 12 {
		t.Errorf("median of two equal groups = %g, want strictly between 10 and 12", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestTrimmedPassesDropsFastestAndSlowest(t *testing.T) {
	cases := []struct {
		walls []float64
		want  []int
	}{
		{nil, []int{}},
		{[]float64{5}, []int{0}},
		{[]float64{5, 4}, []int{0, 1}},
		{[]float64{5, 9, 4}, []int{0}},
		{[]float64{7, 5, 5, 9, 6}, []int{0, 2, 4}}, // one of the tied fastest stays
	}
	for _, c := range cases {
		got := trimmedPasses(c.walls)
		if len(got) != len(c.want) {
			t.Errorf("trimmedPasses(%v) = %v, want %v", c.walls, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("trimmedPasses(%v) = %v, want %v", c.walls, got, c.want)
				break
			}
		}
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean(1, 2, 6) = %g, want 3", got)
	}
	if !math.IsNaN(mean(nil)) {
		t.Error("mean of no samples should be NaN")
	}
}

func TestGeomeanRatio(t *testing.T) {
	got := geomeanRatio([]float64{2, 8}, []float64{1, 2})
	if want := math.Sqrt(8); math.Abs(got-want) > 1e-12 {
		t.Errorf("geomeanRatio = %g, want %g", got, want)
	}
	if got := geomean([]float64{0.5, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("geomean(0.5, 2) = %g, want 1", got)
	}
	for name, r := range map[string]float64{
		"zero denominator": geomeanRatio([]float64{1}, []float64{0}),
		"zero numerator":   geomeanRatio([]float64{0}, []float64{1}),
		"length mismatch":  geomeanRatio([]float64{1, 2}, []float64{1}),
		"empty":            geomeanRatio(nil, nil),
	} {
		if !math.IsNaN(r) {
			t.Errorf("%s: got %g, want NaN", name, r)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	list := []span{
		{name: "cell", parent: -1, start: 0, end: 100 * ms},
		{name: "sim.fresh", parent: 0, start: 10 * ms, end: 30 * ms},
		{name: "sim.replay", parent: 0, start: 20 * ms, end: 50 * ms},   // overlaps the first child
		{name: "code.encode", parent: 0, start: 90 * ms, end: 120 * ms}, // runs past the parent
		{name: "code.encode", parent: 3, start: 95 * ms, end: 100 * ms},
	}
	self := selfTimes(list)
	// Children cover [10,50] and [90,100] of the cell: 50ms of its 100ms.
	if got := self["cell"]; got != 50*ms {
		t.Errorf("cell self = %v, want 50ms", got)
	}
	if got := self["sim.fresh"]; got != 20*ms {
		t.Errorf("sim.fresh self = %v, want 20ms", got)
	}
	// 30ms for the outer encode minus its 5ms child, plus the child's 5ms.
	if got := self["code.encode"]; got != 30*ms {
		t.Errorf("code.encode self = %v, want 30ms", got)
	}
}

func TestCPUCacheSelfTime(t *testing.T) {
	a := &layerAcc{}
	a.addCPUCache(80*time.Millisecond, 30*time.Millisecond, 5*time.Millisecond)
	a.addCPUCache(40*time.Millisecond, 10*time.Millisecond, 2*time.Millisecond)
	if got := a.metrics()["cpu_cache.self_ms"].Value; math.Abs(got-36.5) > 1e-9 {
		t.Errorf("cpu_cache.self_ms = %g, want mean(45, 28) = 36.5", got)
	}
}
