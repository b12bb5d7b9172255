// Package stats provides the measurement utilities used by the
// experiment harness and the telemetry fabric: the mergeable bucketed
// histogram (bucket.go) and simple aggregation helpers. The benchmarks
// of EXPERIMENTS.md are built on these.
package stats

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Counter is a simple labelled counter set for experiment tables.
type Counter struct {
	mu sync.Mutex
	m  map[string]uint64
}

// NewCounter creates an empty counter set.
func NewCounter() *Counter { return &Counter{m: map[string]uint64{}} }

// Add increments a labelled counter.
func (c *Counter) Add(label string, n uint64) {
	c.mu.Lock()
	c.m[label] += n
	c.mu.Unlock()
}

// Get reads a labelled counter.
func (c *Counter) Get(label string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[label]
}

// Rows renders the counter as sorted (label, value) pairs — the shape
// the experiment tables consume.
func (c *Counter) Rows() [][2]string {
	labels := c.Labels()
	out := make([][2]string, 0, len(labels))
	for _, l := range labels {
		out = append(out, [2]string{l, fmt.Sprintf("%d", c.Get(l))})
	}
	return out
}

// Labels returns the sorted label set.
func (c *Counter) Labels() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Rate is a throughput helper: events per second over a wall-clock
// interval.
func Rate(events uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(events) / elapsed.Seconds()
}
