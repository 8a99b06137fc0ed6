package main

import (
	"math"
	"sort"
)

// summary describes one timing sample set the way the choosing-metrics guide
// asks: the sample count, the median, the fixed p90/p99 readings, and the
// highest percentile the sample supports (the highest of 50/90/99/99.9 that
// still has at least ten samples beyond it).
type summary struct {
	N             int
	P50, P90, P99 float64
	// TailPct and Tail are the highest supported percentile and its value;
	// TailPct is 50 when the sample supports nothing higher than the median.
	TailPct float64
	Tail    float64
	Max     float64
}

// tailPercentile returns the highest of 50/90/99/99.9 that leaves at least
// ten of n samples beyond it.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, c := range []struct {
		pct          float64
		beyondPer1e3 int // share of the sample beyond the percentile, in thousandths
	}{{90, 100}, {99, 10}, {99.9, 1}} {
		if n*c.beyondPer1e3 >= 10*1000 {
			best = c.pct
		}
	}
	return best
}

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks. sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summarize sorts samples in place and returns their summary. An empty
// sample yields the zero summary.
func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	sort.Float64s(samples)
	s := summary{
		N:       len(samples),
		P50:     quantile(samples, 0.50),
		P90:     quantile(samples, 0.90),
		P99:     quantile(samples, 0.99),
		TailPct: tailPercentile(len(samples)),
		Max:     samples[len(samples)-1],
	}
	s.Tail = quantile(samples, s.TailPct/100)
	return s
}

// quartiles returns the first quartile, median and third quartile of values
// by the same "exclusive" method as Python's statistics.quantiles(v, n=4),
// which is what the driver uses to judge run-to-run spread. It needs at least
// two values; with fewer it returns the single value three times.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return v[j-1] + (v[j]-v[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// quietShare is the share of a run's readings that quietMean keeps.
const quietShare = 0.10

// quietMean is how a run reports a timing that the box disturbs from outside:
// the mean over the best tenth of its readings (at least three), the lowest
// ones. A neighbour on the shared host only ever makes a reading worse, for
// seconds at a time, so the best readings are the ones taken while the box was
// the program's own; a median over all of them moves with every such episode
// (by 60 % under a synthetic neighbour busy half the time, against 15 % for
// this), and a mean over a tenth is steadier than any single order statistic.
func quietMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := min(len(v), max(3, int(float64(len(v))*quietShare)))
	var sum float64
	for _, x := range v[:n] {
		sum += x
	}
	return sum / float64(n)
}
