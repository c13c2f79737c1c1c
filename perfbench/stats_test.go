package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestPercentileRule pins the nearest-rank percentile and the rule that
// a reported percentile needs ten samples ranked above it.
func TestPercentileRule(t *testing.T) {
	p := percentile(seq(1000), 99)
	if p.Value != 990 || p.N != 1000 || p.Beyond != 10 || !p.ok() {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990, 10 beyond, ok", p)
	}
	if p := percentile(seq(999), 99); p.ok() || p.Beyond != 9 {
		t.Fatalf("p99 of 999 samples = %+v, want 9 beyond and not ok", p)
	}
	if p := percentile(seq(10), 50); p.Value != 5 || p.Beyond != 5 {
		t.Fatalf("p50 of 1..10 = %+v, want 5 with 5 beyond", p)
	}
	if p := percentile(nil, 99); p.N != 0 || p.ok() {
		t.Fatalf("empty percentile = %+v", p)
	}
	if s := percentile(seq(1000), 99).String(); s != "p99 of n=1000 (10 beyond)" {
		t.Fatalf("String() = %q", s)
	}
}

func TestRatio(t *testing.T) {
	if v := (ratio{1, 4}).Value(); v != 0.25 {
		t.Fatalf("1/4 = %v", v)
	}
	if v := (ratio{3, 0}).Value(); v != 0 {
		t.Fatalf("empty base must read 0, got %v", v)
	}
	if s := (ratio{12, 48}).String(); s != "12/48" {
		t.Fatalf("String() = %q", s)
	}
	if s := (ratio{0.5, 3}).String(); s != "0.5/3" {
		t.Fatalf("String() = %q", s)
	}
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(4), 1.25, 3.75},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread(seq(10)); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", s)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestCompareRuns checks the bound comparison in both directions.
func TestCompareRuns(t *testing.T) {
	defs := []metricDef{
		{Name: "lat", Unit: "us", Better: "lower", Bound: 0.1},
		{Name: "rate", Unit: "ops/s", Better: "higher", Bound: 0.1},
		{Name: "unbounded", Unit: "count", Better: "lower"},
	}
	base := map[string][]float64{"lat": {100, 101, 99}, "rate": {1000, 990, 1010}, "unbounded": {1}}
	within := map[string][]float64{"lat": {108, 109, 107}, "rate": {920, 930, 910}, "unbounded": {5}}
	for _, v := range compareRuns(base, within, defs) {
		if v.Regressed {
			t.Errorf("%s regressed within its bound: %+v", v.Metric, v)
		}
	}
	worse := map[string][]float64{"lat": {112, 111, 113}, "rate": {880, 890, 870}}
	vs := compareRuns(base, worse, defs)
	if len(vs) != 2 {
		t.Fatalf("got %d verdicts, want 2 (metrics missing on one side are skipped)", len(vs))
	}
	for _, v := range vs {
		if !v.Regressed {
			t.Errorf("%s not flagged: %+v", v.Metric, v)
		}
	}
	if math.Abs(vs[0].Worse-0.12) > 1e-12 || math.Abs(vs[1].Worse-0.12) > 1e-12 {
		t.Errorf("worse shares = %v, %v; want 0.12 each", vs[0].Worse, vs[1].Worse)
	}
	better := map[string][]float64{"lat": {50}, "rate": {2000}}
	for _, v := range compareRuns(base, better, defs) {
		if v.Regressed || v.Worse >= 0 {
			t.Errorf("%s improvement read as worse: %+v", v.Metric, v)
		}
	}
}
