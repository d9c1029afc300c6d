package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of an ascending sample:
// the smallest value with at least a q share of the sample at or below
// it. An empty sample has no quantile (NaN).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1]
}

// hdQuantile is the Harrell–Davis estimate of the q-quantile of an
// ascending sample: a Beta-weighted mean of every order statistic. The
// end-to-end latency percentiles use it because a run holds only a few
// hundred ops, and a single order statistic of such a sample moves
// several percent from run to run when the latency distribution is wide
// or gapped (1-, 2- and 3-move edit batches, WAL snapshots).
func hdQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	sum, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		cur := betaInc(float64(i)/float64(n), a, b)
		sum += (cur - prev) * sorted[i-1]
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b), by
// its continued fraction.
func betaInc(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction of betaInc (modified Lentz).
func betaCF(x, a, b float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		step := d * c
		h *= step
		if math.Abs(step-1) < eps {
			break
		}
	}
	return h
}

// tailLevels are the percentiles a tail may be reported at, highest
// first.
var tailLevels = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// tailLevel returns the highest percentile of tailLevels that leaves at
// least ten of n samples beyond it, or 0.5 when none does: a tail read
// from fewer samples than that is one slow request, not a percentile.
func tailLevel(n int) float64 {
	for _, q := range tailLevels {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			return q
		}
	}
	return 0.5
}

// tailNote describes an ascending latency sample: its size and its
// 95th percentile, with the highest percentile that keeps ten samples
// beyond it.
func tailNote(sorted []float64) string {
	note := fmt.Sprintf("%d ops, p95 %.4g ms", len(sorted), hdQuantile(sorted, 0.95))
	if lvl := tailLevel(len(sorted)); lvl != 0.95 {
		note += fmt.Sprintf(", p%g %.4g ms", 100*lvl, hdQuantile(sorted, lvl))
	}
	return note
}

// sortedMs converts durations to ascending milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles returns the first quartile, median and third quartile of a
// sample by the same exclusive method Python's statistics.quantiles(n=4)
// uses, so -repeat summaries read like the acceptance arithmetic.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func median(vals []float64) float64 {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	n := len(d)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}
