package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is noise, not a measurement.
const minBeyond = 10

// tail is a percentile read from a sample set, with the count it rests on.
type tail struct {
	Value  float64
	N      int // samples in the set
	Beyond int // samples strictly ranked above the percentile
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, which it sorts in place. It fails unless at least minBeyond
// samples rank above it, so a p99 needs 1000 samples or more.
func percentile(samples []float64, p float64) (tail, error) {
	n := len(samples)
	if n == 0 {
		return tail{}, fmt.Errorf("p%g of no samples", p)
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	t := tail{Value: samples[rank-1], N: n, Beyond: n - rank}
	if t.Beyond < minBeyond {
		return t, fmt.Errorf("p%g of %d samples has %d beyond it, want ≥%d", p, n, t.Beyond, minBeyond)
	}
	return t, nil
}

// median returns the median of xs (mean of the middle pair when even),
// sorting a copy; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// groupedPercentile splits consecutive sample sets (one per rep) into
// about five groups, each large enough for the p-th percentile to have
// minBeyond samples above it, and returns the median of the groups'
// percentiles with the total sample count. A stall that hits one rep
// moves one group, not the run's figure.
func groupedPercentile(sets [][]float64, p float64) (tail, error) {
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	need := max(int(math.Ceil(float64(minBeyond)/(1-p/100))), total/5)
	var vals, group []float64
	rest := total
	for _, s := range sets {
		group = append(group, s...)
		rest -= len(s)
		// Close a group once it is large enough, unless what is left
		// could not fill another; that folds into this one.
		if len(group) < need || (rest > 0 && rest < need) {
			continue
		}
		t, err := percentile(group, p)
		if err != nil {
			return t, err
		}
		vals = append(vals, t.Value)
		group = nil
	}
	if len(vals) == 0 {
		return percentile(group, p) // reports the shortfall
	}
	return tail{Value: median(vals), N: total, Beyond: total - int(math.Ceil(p/100*float64(total)))}, nil
}
