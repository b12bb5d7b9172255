package stats

import (
	"math"
	"sort"
	"sync"
	"testing"
)

// xorshift is the deterministic RNG the property tests use.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// skewedSample draws a heavy-tailed value: mostly small, occasionally
// 100–1000× larger, so p999 lives far from p50.
func skewedSample(rng *xorshift) float64 {
	u := rng.next()
	base := float64(1_000 + u%9_000)
	if u%1000 < 10 { // 1% tail
		return base * float64(50+u%200)
	}
	return base
}

func TestBucketIndexRoundTrip(t *testing.T) {
	// Every bucket's bounds must map back to that bucket, and bounds
	// must tile the value space with no gaps or overlaps.
	var prevHi uint64
	for i := 0; i < overflowBucket; i++ {
		lo, hi := bucketBounds(i)
		if i > 0 && lo != prevHi+1 {
			t.Fatalf("bucket %d: lo=%d, want %d (gap after previous hi)", i, lo, prevHi+1)
		}
		if bucketIndex(lo) != i || bucketIndex(hi) != i {
			t.Fatalf("bucket %d: bounds [%d,%d] map to [%d,%d]", i, lo, hi, bucketIndex(lo), bucketIndex(hi))
		}
		if hi < lo {
			t.Fatalf("bucket %d: inverted bounds [%d,%d]", i, lo, hi)
		}
		prevHi = hi
	}
	if prevHi != maxTrackable {
		t.Fatalf("top regular bucket ends at %d, want %d", prevHi, maxTrackable)
	}
	if bucketIndex(maxTrackable+1) != overflowBucket {
		t.Fatalf("maxTrackable+1 not in overflow bucket")
	}
	if bucketIndex(math.MaxUint64/2) != overflowBucket {
		t.Fatalf("huge value not in overflow bucket")
	}
}

func TestBucketRelativeError(t *testing.T) {
	// Any value's bucket midpoint must be within 1/(2*subCount) of the
	// value itself (for values past the exact-unit range).
	rng := xorshift(42)
	for i := 0; i < 100_000; i++ {
		v := float64(rng.next() % maxTrackable)
		if v < subCount {
			continue
		}
		mid := bucketMid(bucketIndex(uint64(v)))
		rel := math.Abs(mid-v) / v
		if rel > 1.0/(2*subCount)+1e-9 {
			t.Fatalf("value %v: midpoint %v, relative error %v exceeds bound", v, mid, rel)
		}
	}
}

// TestMergeEqualsUnion is the cluster-correctness property: merging N
// per-node histograms must yield IDENTICAL quantiles to observing the
// union stream into one histogram — including empty nodes and
// single-sample nodes.
func TestMergeEqualsUnion(t *testing.T) {
	cases := []struct {
		name   string
		nodes  int
		counts []int // observations per node; -1 = skewed default
	}{
		{"four-even-nodes", 4, []int{5000, 5000, 5000, 5000}},
		{"uneven-nodes", 3, []int{10000, 17, 3}},
		{"empty-node", 3, []int{4000, 0, 4000}},
		{"single-sample-node", 4, []int{1, 1, 0, 9000}},
		{"all-empty", 2, []int{0, 0}},
		{"one-node-only", 1, []int{12345}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := xorshift(7)
			union := &BucketHistogram{}
			shards := make([]*BucketHistogram, tc.nodes)
			for i := range shards {
				shards[i] = &BucketHistogram{}
			}
			for i, n := range tc.counts {
				for j := 0; j < n; j++ {
					v := skewedSample(&rng)
					shards[i].Observe(v)
					union.Observe(v)
				}
			}
			merged := &BucketHistogram{}
			for _, s := range shards {
				merged.Merge(s)
			}
			if merged.Count() != union.Count() {
				t.Fatalf("count: merged %d union %d", merged.Count(), union.Count())
			}
			if merged.Sum() != union.Sum() {
				t.Fatalf("sum: merged %v union %v", merged.Sum(), union.Sum())
			}
			if merged.Min() != union.Min() || merged.Max() != union.Max() {
				t.Fatalf("min/max: merged %v/%v union %v/%v", merged.Min(), merged.Max(), union.Min(), union.Max())
			}
			md, ud := merged.Snapshot(), union.Snapshot()
			for _, p := range []float64{0, 10, 50, 90, 95, 99, 99.9, 100} {
				if got, want := md.Quantile(p), ud.Quantile(p); got != want {
					t.Fatalf("p%v: merged %v, union %v — merge must be exact", p, got, want)
				}
			}
			// Dist-level merge (the scrape path) must agree too.
			dm := &Dist{}
			for _, s := range shards {
				dm.Merge(s.Snapshot())
			}
			for _, p := range []float64{50, 99, 99.9} {
				if got, want := dm.Quantile(p), ud.Quantile(p); got != want {
					t.Fatalf("dist merge p%v: %v want %v", p, got, want)
				}
			}
		})
	}
}

func TestQuantileAccuracy(t *testing.T) {
	// Bucketed quantiles must land within one bucket width of the true
	// order statistic.
	rng := xorshift(99)
	h := &BucketHistogram{}
	var raw []float64
	for i := 0; i < 50_000; i++ {
		v := skewedSample(&rng)
		h.Observe(v)
		raw = append(raw, v)
	}
	sort.Float64s(raw)
	d := h.Snapshot()
	for _, p := range []float64{50, 90, 99, 99.9} {
		rank := int(math.Ceil(p / 100 * float64(len(raw))))
		if rank < 1 {
			rank = 1
		}
		want := raw[rank-1]
		got := d.Quantile(p)
		if rel := math.Abs(got-want) / want; rel > 1.0/subCount {
			t.Fatalf("p%v: bucketed %v true %v rel err %v > %v", p, got, want, rel, 1.0/subCount)
		}
	}
}

func TestDistSubDelta(t *testing.T) {
	h := &BucketHistogram{}
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	snap1 := h.Snapshot()
	for i := 0; i < 50; i++ {
		h.Observe(5000)
	}
	snap2 := h.Snapshot()
	delta := snap2.Sub(snap1)
	if delta.Total() != 50 {
		t.Fatalf("delta total %d want 50", delta.Total())
	}
	if got := delta.Quantile(50); math.Abs(got-5000) > 5000/float64(subCount) {
		t.Fatalf("delta p50 %v want ~5000", got)
	}
	// Sub against nil / empty behaves as identity with cleared min/max.
	if got := snap2.Sub(nil).Total(); got != 150 {
		t.Fatalf("sub(nil) total %d want 150", got)
	}
	// Delta of identical snapshots is empty.
	if got := snap2.Sub(snap2).Total(); got != 0 {
		t.Fatalf("self-delta total %d want 0", got)
	}
}

func TestDistFractionAbove(t *testing.T) {
	h := &BucketHistogram{}
	for i := 0; i < 900; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1_000_000)
	}
	d := h.Snapshot()
	if got := d.FractionAbove(10_000); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("FractionAbove(10k) = %v want 0.1", got)
	}
	if got := d.FractionAbove(2_000_000); got != 0 {
		t.Fatalf("FractionAbove(2M) = %v want 0", got)
	}
	var empty *Dist
	if got := empty.Total(); got != 0 {
		t.Fatalf("nil dist total %d", got)
	}
}

func TestCountAtOrBelowLadder(t *testing.T) {
	// The OpenMetrics le ladder uses 2^k−1 boundaries; those must be
	// exact bucket upper bounds so cumulative counts are exact.
	for k := 1; k <= 44; k++ {
		le := uint64(1)<<k - 1
		if le > maxTrackable {
			break
		}
		idx := bucketIndex(le)
		if _, hi := bucketBounds(idx); hi != le {
			t.Fatalf("le=2^%d-1=%d is not a bucket upper bound (bucket hi=%d)", k, le, hi)
		}
	}
}

func TestBucketHistogramConcurrent(t *testing.T) {
	h := &BucketHistogram{}
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xorshift(seed + 1)
			for i := 0; i < per; i++ {
				h.Observe(skewedSample(&rng))
			}
		}(uint64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count %d want %d", h.Count(), workers*per)
	}
	if got := h.Snapshot().Total(); got != workers*per {
		t.Fatalf("bucket total %d want %d", got, workers*per)
	}
	if h.Min() <= 0 || h.Max() < h.Min() {
		t.Fatalf("min/max inconsistent: %v/%v", h.Min(), h.Max())
	}
}

func TestNilBucketHistogram(t *testing.T) {
	var h *BucketHistogram
	h.Observe(5) // must not panic
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("nil histogram reads non-zero")
	}
	if d := h.Snapshot(); d.Total() != 0 || d.Quantile(50) != 0 {
		t.Fatalf("nil snapshot non-empty")
	}
}

// BenchmarkObserveParallel measures Observe under 8 concurrent
// writers: the wait-free path the telemetry fabric's shared
// instruments rely on.
func BenchmarkObserveParallel(b *testing.B) {
	h := &BucketHistogram{}
	b.SetParallelism(8)
	b.RunParallel(func(pb *testing.PB) {
		v := 1000.0
		for pb.Next() {
			h.Observe(v)
			v += 17
		}
	})
}

func BenchmarkObserveSerial(b *testing.B) {
	h := &BucketHistogram{}
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100_000 + 1))
	}
}
