package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles the tail metric may report, lowest
// first. The reported tail is the highest rung that still has at least
// minBeyond samples above it. There is no p95 or p99 rung: between 100 and
// 9999 samples the tail stays p90, so the cell counts a run collects on a
// fast or a slow host (at least 100, up to about 1500) all report the same
// percentile.
var tailLadder = []float64{50, 75, 90, 99.9}

// minBeyond is the number of samples a tail percentile must have beyond it.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it, and false when n is too small for even
// the median to qualify.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		beyond := int(math.Floor(float64(n)*(100-p)/100 + 1e-9)) // 1e-9: 100-99.9 is not exact
		if beyond >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// quantile is the Harrell-Davis estimate of the q-th quantile (0 < q < 1):
// a weighted mean of all order statistics, with Beta(q(n+1), (1-q)(n+1))
// weights. Unlike a single order statistic it moves smoothly when samples
// cluster into groups (one group per cell configuration, or whole
// milliseconds as the sweep runner reports them), so a quantile that falls
// between two groups does not jump from one to the other on noise.
func quantile(samples []float64, q float64) float64 {
	n := len(samples)
	switch {
	case n == 0:
		return math.NaN()
	case n == 1:
		return samples[0]
	}
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est float64
	prev := 0.0
	for i := 1; i <= n; i++ {
		cur := regIncBeta(a, b, float64(i)/float64(n))
		est += (cur - prev) * xs[i-1]
		prev = cur
	}
	return est
}

// median is quantile(samples, 0.5).
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// mean is the arithmetic mean, NaN for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// trimmedPasses returns the indices, in pass order, of the passes wall_s
// averages: every pass but the fastest and the slowest once there are at
// least three. When the host changes speed during a run, a mean moves in
// proportion to the time spent at each speed where a median of a few
// passes jumps from one speed to the other; dropping the two extremes
// keeps a single disturbed pass from moving it.
func trimmedPasses(walls []float64) []int {
	idx := make([]int, len(walls))
	for i := range idx {
		idx[i] = i
	}
	if len(walls) < 3 {
		return idx
	}
	sort.SliceStable(idx, func(a, b int) bool { return walls[idx[a]] < walls[idx[b]] })
	kept := idx[1 : len(idx)-1]
	sort.Ints(kept)
	return kept
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated with the continued fraction of Numerical Recipes §6.4.
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a + b)
	lb, _ := math.Lgamma(a)
	lc, _ := math.Lgamma(b)
	front := math.Exp(la - lb - lc + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete-beta continued fraction (modified Lentz).
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	qab, qap, qam := a+b, a+1, a-1
	c, d := 1.0, 1-qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + 2*fm) * (a + 2*fm))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + 2*fm) * (qap + 2*fm))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-12 {
			break
		}
	}
	return h
}

// geomean is the geometric mean of positive values; it returns NaN for an
// empty input or any non-positive value, which the output check rejects.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range vs {
		if !(v > 0) {
			return math.NaN()
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// geomeanRatio is the geometric mean over pairs of num[i] / den[i].
func geomeanRatio(num, den []float64) float64 {
	if len(num) != len(den) {
		return math.NaN()
	}
	rs := make([]float64, len(num))
	for i := range num {
		if den[i] == 0 {
			return math.NaN()
		}
		rs[i] = num[i] / den[i]
	}
	return geomean(rs)
}
