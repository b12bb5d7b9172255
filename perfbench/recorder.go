package main

import (
	"sync"
	"time"
)

// maxFields is the most integers a workload prints on one line.
const maxFields = 3

// record is one line a site printed: its integer fields and when the
// line was written, in nanoseconds since the recorder's base time.
type record struct {
	t int64
	n int // fields parsed; -1 when the line is not 1..maxFields integers
	v [maxFields]int64
}

// parseLine parses a line of space-separated decimal integers in place:
// no allocation, since sites call the output port inside their turn.
func parseLine(line []byte) record {
	var r record
	i := 0
	for {
		if r.n == maxFields || i >= len(line) {
			r.n = -1
			return r
		}
		neg := false
		if line[i] == '-' {
			neg = true
			i++
		}
		start := i
		var x int64
		for i < len(line) && line[i] >= '0' && line[i] <= '9' {
			if i-start == 18 {
				r.n = -1 // would overflow int64
				return r
			}
			x = x*10 + int64(line[i]-'0')
			i++
		}
		if i == start {
			r.n = -1
			return r
		}
		if neg {
			x = -x
		}
		r.v[r.n] = x
		r.n++
		if i == len(line) {
			return r
		}
		if line[i] != ' ' {
			r.n = -1
			return r
		}
		i++
	}
}

// recorder is the output port handed to the sites whose lines are the
// workload's results. Each Write is parsed where it arrives, and the
// lock covers only the append into a slice sized up front. When the
// count of lines reaches a mark, onMark runs on the writing goroutine;
// when it reaches want, done closes.
type recorder struct {
	base   time.Time
	marks  []int
	onMark func(i int)
	want   int
	done   chan struct{}

	mu       sync.Mutex
	recs     []record
	overflow int // lines beyond the capacity of recs
}

func newRecorder(base time.Time, capacity, want int, marks []int, onMark func(int)) *recorder {
	return &recorder{
		base:   base,
		marks:  marks,
		onMark: onMark,
		want:   want,
		done:   make(chan struct{}),
		recs:   make([]record, 0, capacity),
	}
}

// Write records every line of p. The VM writes each println with one
// call, so a line never spans two writes.
func (r *recorder) Write(p []byte) (int, error) {
	now := time.Since(r.base).Nanoseconds()
	for rest := p; len(rest) > 0; {
		line := rest
		rest = nil
		for i, c := range line {
			if c == '\n' {
				line, rest = line[:i], line[i+1:]
				break
			}
		}
		rec := parseLine(line)
		rec.t = now
		r.add(rec)
	}
	return len(p), nil
}

func (r *recorder) add(rec record) {
	r.mu.Lock()
	k := 0
	if len(r.recs) < cap(r.recs) {
		r.recs = append(r.recs, rec)
		k = len(r.recs)
	} else {
		r.overflow++
	}
	r.mu.Unlock()
	if k == 0 {
		return
	}
	for i, m := range r.marks {
		if k == m {
			r.onMark(i)
		}
	}
	if k == r.want {
		close(r.done)
	}
}

// lines returns the recorded lines and the count that did not fit.
func (r *recorder) lines() ([]record, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recs, r.overflow
}
