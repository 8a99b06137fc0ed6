package main

import (
	"math"
	"testing"
)

func TestSummarizeMedianAndTail(t *testing.T) {
	// 1..1000: the sample supports p99 (ten samples beyond it) but not p99.9.
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i)
	}
	s := summarize(samples)
	if s.N != 1000 {
		t.Fatalf("sample count %d, want 1000", s.N)
	}
	if s.P50 != 500.5 {
		t.Errorf("median %v, want 500.5", s.P50)
	}
	if s.TailPct != 99 {
		t.Errorf("highest supported percentile %v, want 99", s.TailPct)
	}
	if want := quantile(samples, 0.99); s.Tail != want || s.Tail != s.P99 {
		t.Errorf("tail %v, want p99 %v", s.Tail, want)
	}
	if s.Max != 1000 {
		t.Errorf("max %v, want 1000", s.Max)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("empty sample: %+v", s)
	}
	if s := summarize([]float64{7}); s.N != 1 || s.P50 != 7 || s.P90 != 7 || s.Tail != 7 {
		t.Errorf("single sample: %+v", s)
	}
}

// The driver judges spread with Python's statistics.quantiles(values, n=4);
// quartiles must agree with it. The expected values are Python's.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v, want 0.75 1.5 2.25", q1, med, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
}

func TestQuietMeanKeepsTheBestTenth(t *testing.T) {
	// 100 readings: 1..100 in some order. The best tenth is 1..10, mean 5.5,
	// whatever the other ninety read.
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64((i*37)%100 + 1)
	}
	if got := quietMean(values); got != 5.5 {
		t.Errorf("quietMean of 1..100 = %v, want 5.5", got)
	}
	for i := range values {
		if values[i] > 10 {
			values[i] *= 50
		}
	}
	if got := quietMean(values); got != 5.5 {
		t.Errorf("quietMean moved with the disturbed readings: %v", got)
	}
	// Never fewer than three readings, and never more than there are.
	if got := quietMean([]float64{9, 1, 5, 3, 7}); got != 3 {
		t.Errorf("quietMean of five = %v, want 3 (mean of 1, 3, 5)", got)
	}
	if got := quietMean([]float64{4, 2}); got != 3 {
		t.Errorf("quietMean of two = %v, want 3", got)
	}
	if got := quietMean(nil); got != 0 {
		t.Errorf("quietMean of none = %v", got)
	}
}

func TestVerdictMarksWideSpreadUnresolved(t *testing.T) {
	m := metricDecl{Name: "decision_p50_us", Unit: "us", Better: lower, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	if got := verdict(m, steady, []float64{101, 100, 102, 99, 100}); got != "unchanged" {
		t.Errorf("same readings: %q", got)
	}
	if got := verdict(m, steady, []float64{120, 121, 119, 122, 120}); got != "REGRESSED" {
		t.Errorf("20%% worse: %q", got)
	}
	noisy := []float64{80, 100, 120, 140, 90}
	if got := verdict(m, steady, noisy); got != "unresolved (spread exceeds bound)" {
		t.Errorf("noisy change: %q", got)
	}
	if got := verdict(m, []float64{200, 260, 230}, []float64{100, 150, 120}); got != "better (every run)" {
		t.Errorf("noisy but every run better: %q", got)
	}
}
