package stats_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// The histogram tests below pin the contract the experiment tables
// rely on (E3 reads Mean and Percentile of instructions per thread):
// values below 128 land in unit-width buckets, so they read exactly.

func TestHistogramBasics(t *testing.T) {
	h := &stats.BucketHistogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 50.5 {
		t.Fatalf("mean = %f", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %f/%f", h.Min(), h.Max())
	}
	if p := h.Percentile(50); p != 50 {
		t.Fatalf("p50 = %f", p)
	}
	if p := h.Percentile(95); p != 95 {
		t.Fatalf("p95 = %f", p)
	}
	if p := h.Percentile(0); p != 1 {
		t.Fatalf("p0 = %f", p)
	}
	if p := h.Percentile(100); p != 100 {
		t.Fatalf("p100 = %f", p)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &stats.BucketHistogram{}
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

// TestHistogramReservoir: memory stays fixed however many samples
// arrive, yet count, min and max stay exact and percentiles close.
func TestHistogramReservoir(t *testing.T) {
	h := &stats.BucketHistogram{}
	r := rand.New(rand.NewSource(5))
	const n = 100000
	for i := 0; i < n; i++ {
		h.Observe(r.Float64() * 1000)
	}
	if h.Count() != n {
		t.Fatalf("count = %d", h.Count())
	}
	if p := h.Percentile(50); p < 490 || p > 510 {
		t.Fatalf("p50 of uniform(0,1000) = %f", p)
	}
	if h.Max() > 1000 || h.Min() < 0 {
		t.Fatalf("bounds broken: %f %f", h.Min(), h.Max())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &stats.BucketHistogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramDuration(t *testing.T) {
	h := &stats.BucketHistogram{}
	h.ObserveDuration(int64(2 * time.Microsecond))
	if h.Mean() != 2000 {
		t.Fatalf("mean = %f ns", h.Mean())
	}
}

func TestCounter(t *testing.T) {
	c := stats.NewCounter()
	c.Add("msgs", 3)
	c.Add("msgs", 2)
	c.Add("objs", 1)
	if c.Get("msgs") != 5 || c.Get("objs") != 1 || c.Get("none") != 0 {
		t.Fatal("counter values wrong")
	}
	labels := c.Labels()
	if len(labels) != 2 || labels[0] != "msgs" || labels[1] != "objs" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestRate(t *testing.T) {
	if r := stats.Rate(100, time.Second); r != 100 {
		t.Fatalf("rate = %f", r)
	}
	if r := stats.Rate(100, 0); r != 0 {
		t.Fatalf("zero-interval rate = %f", r)
	}
}
