package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a reported percentile needs at
// least this many samples ranked above it, or it is an extrapolation.
const minBeyond = 10

// pctl is one percentile reading with the sample count it rests on.
type pctl struct {
	P      float64 // requested percentile, 0..100
	Value  float64
	N      int // samples
	Beyond int // samples ranked strictly above the reported one
}

// ok reports whether the reading satisfies the percentile rule.
func (p pctl) ok() bool { return p.Beyond >= minBeyond }

func (p pctl) String() string {
	return fmt.Sprintf("p%g of n=%d (%d beyond)", p.P, p.N, p.Beyond)
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) pctl {
	n := len(sorted)
	if n == 0 {
		return pctl{P: p}
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return pctl{P: p, Value: sorted[idx], N: n, Beyond: n - 1 - idx}
}

// median returns the middle value of xs (mean of the two middle values
// for even lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile of xs by the
// exclusive method — the same numbers Python's
// statistics.quantiles(xs, n=4) gives.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// ratio is a share with its base kept, so every printed ratio can
// show what it divides.
type ratio struct {
	Num, Den float64
}

// Value is Num/Den, or 0 when the base is empty.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

func (r ratio) String() string {
	return fmt.Sprintf("%s/%s", fmtNum(r.Num), fmtNum(r.Den))
}

func fmtNum(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.4g", x)
}

// verdict is the bound comparison of one metric between a base and a
// candidate set of runs.
type verdict struct {
	Metric     string
	BaseMedian float64
	CandMedian float64
	// Worse is how much worse the candidate median is than the base
	// median, as a share of the base median (negative = better).
	Worse      float64
	Bound      float64
	BaseSpread float64
	Regressed  bool
}

// compareRuns applies each metric's bound: the candidate regresses a
// metric when its median is worse than the base median by more than
// the bound. Metrics absent from either side are skipped.
func compareRuns(base, cand map[string][]float64, defs []metricDef) []verdict {
	var out []verdict
	for _, d := range defs {
		b, c := base[d.Name], cand[d.Name]
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		v := verdict{Metric: d.Name, BaseMedian: median(b), CandMedian: median(c),
			Bound: d.Bound, BaseSpread: spread(b)}
		if v.BaseMedian != 0 {
			v.Worse = (v.CandMedian - v.BaseMedian) / math.Abs(v.BaseMedian)
			if d.Better == "higher" {
				v.Worse = -v.Worse
			}
		}
		v.Regressed = d.Bound > 0 && v.Worse > d.Bound
		out = append(out, v)
	}
	return out
}
