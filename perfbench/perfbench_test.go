package main

import (
	"reflect"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	got, err := percentile(seq(1000), 99)
	if err != nil {
		t.Fatalf("p99 of 1000: %v", err)
	}
	if got.Value != 990 || got.N != 1000 || got.Beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990, n 1000, 10 beyond", got)
	}
	if got, err := percentile(seq(999), 99); err == nil {
		t.Fatalf("p99 of 999 samples accepted with %d beyond", got.Beyond)
	}
	if got, err := percentile(seq(21), 50); err != nil || got.Value != 11 || got.Beyond != 10 {
		t.Fatalf("p50 of 1..21 = %+v, %v; want 11 with 10 beyond", got, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestParseLine(t *testing.T) {
	for _, c := range []struct {
		in   string
		n    int
		vals []int64
	}{
		{"7 41 42", 3, []int64{7, 41, 42}},
		{"-5 0", 2, []int64{-5, 0}},
		{"123456789012345678", 1, []int64{123456789012345678}},
		{"", -1, nil},
		{"x", -1, nil},
		{"1  2", -1, nil},
		{"1 2 ", -1, nil},
		{"1 2 3 4", -1, nil},
		{"1 -", -1, nil},
		{"12a", -1, nil},
		{"1234567890123456789", -1, nil}, // 19 digits may overflow
	} {
		r := parseLine([]byte(c.in))
		if r.n != c.n {
			t.Errorf("parseLine(%q).n = %d, want %d", c.in, r.n, c.n)
			continue
		}
		if c.n > 0 && !reflect.DeepEqual(r.v[:c.n], c.vals) {
			t.Errorf("parseLine(%q) = %v, want %v", c.in, r.v[:c.n], c.vals)
		}
	}
}

func TestRecorderMarksAndDone(t *testing.T) {
	var fired []int
	r := newRecorder(time.Now(), 8, 4, []int{1, 3}, func(i int) { fired = append(fired, i) })
	if _, err := r.Write([]byte("1 2\n3 4\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write([]byte("oops\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-r.done:
		t.Fatal("done before the fourth line")
	default:
	}
	if _, err := r.Write([]byte("5 6\n")); err != nil {
		t.Fatal(err)
	}
	<-r.done
	recs, overflow := r.lines()
	if len(recs) != 4 || overflow != 0 {
		t.Fatalf("%d lines, %d overflow; want 4, 0", len(recs), overflow)
	}
	if recs[2].n != -1 || recs[3].v[0] != 5 {
		t.Fatalf("lines = %+v", recs)
	}
	if !reflect.DeepEqual(fired, []int{0, 1}) {
		t.Fatalf("marks fired %v, want [0 1]", fired)
	}
}

func TestRecorderWriteDoesNotAllocate(t *testing.T) {
	r := newRecorder(time.Now(), 501, -1, nil, nil) // AllocsPerRun calls 501 times
	line := []byte("17 123456 123457\n")
	if n := testing.AllocsPerRun(500, func() { _, _ = r.Write(line) }); n != 0 {
		t.Fatalf("Write allocates %v times per line", n)
	}
	r.Write(line) // beyond capacity: counted, not grown
	if _, overflow := r.lines(); overflow == 0 {
		t.Fatal("a line beyond capacity was not counted")
	}
}

func TestSelfTimeSubtractsOverlappingChildren(t *testing.T) {
	parent := span{layer: lSpawn, start: 0, end: 100, sid: 9}
	kids := []span{
		{start: 10, end: 20},
		{start: 15, end: 30},   // overlaps the first: counted once
		{start: 90, end: 120},  // sticks out of the parent
		{start: 200, end: 300}, // outside the parent
	}
	if got := selfTime(parent, kids); got != 70 {
		t.Fatalf("self time = %d, want 70", got)
	}
	spans := []span{
		parent,
		{layer: lNSReg, start: 10, end: 40, sid: 9},
		{layer: lNSReg, start: 50, end: 60, sid: 8}, // another site's
		{layer: lSend, start: 0, end: 100, sid: 0},  // unattributed
	}
	if got := selfTimes(spans, lSpawn); !reflect.DeepEqual(got, []int64{70}) {
		t.Fatalf("selfTimes = %v, want [70]", got)
	}
}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	// The generator ran late for op 1 (sent at 30 although due at 10);
	// its latency still counts from 10. Op 2 never completed.
	due := []int64{0, 10_000, 20_000}
	done := []int64{5_000, 40_000, 0}
	lat := openLoopLatency(due, done, []bool{true, true, false})
	if !reflect.DeepEqual(lat, []float64{5, 30}) {
		t.Fatalf("latencies = %v µs, want [5 30]", lat)
	}
}

func TestCheckRPCCountsWrongAndRepeatedReplies(t *testing.T) {
	in := genInputs(3)
	r := &rep{w: workloads["rpc"], in: in}
	x := in.rpcStart[5]
	recs := []record{
		{t: 1, n: 3, v: [3]int64{5, x, x + 1}},
		{t: 2, n: 3, v: [3]int64{5, x + 1, x + 3}}, // wrong reply
		{t: 3, n: 3, v: [3]int64{5, x, x + 1}},     // repeated
		{t: 4, n: 3, v: [3]int64{5, x + rpcCalls, x + rpcCalls + 1}},
	}
	good, junk, _ := checkRPC(r, recs)
	if good != 1 || junk != 3 {
		t.Fatalf("good %d junk %d, want 1 and 3", good, junk)
	}
}

func TestCheckSessionWantsAppletSum(t *testing.T) {
	in := genInputs(4)
	r := &rep{w: workloads["session"], in: in, due: make([]int64, sessions)}
	want := sessionWant(in, 2)
	var manual int64
	for k := 1; k <= in.sessU[2]; k++ {
		manual += in.sessA[2] + int64(k) + 189 // 64 terms of i%7 sum to 189
	}
	if want != manual {
		t.Fatalf("sessionWant = %d, want %d", want, manual)
	}
	recs := []record{{n: 2, v: [3]int64{2, want}}, {n: 2, v: [3]int64{3, sessionWant(in, 3) + 1}}}
	good, junk, _ := checkSession(r, recs)
	if good != 1 || junk != 1 {
		t.Fatalf("good %d junk %d, want 1 and 1", good, junk)
	}
}

func TestInputsFollowSeed(t *testing.T) {
	if !reflect.DeepEqual(genInputs(11), genInputs(11)) {
		t.Fatal("the same seed gave different inputs")
	}
	if reflect.DeepEqual(genInputs(11), genInputs(12)) {
		t.Fatal("different seeds gave the same inputs")
	}
	for _, u := range genInputs(11).sessU {
		if u < sessionMinU || u > sessionMaxU {
			t.Fatalf("U = %d outside [%d, %d]", u, sessionMinU, sessionMaxU)
		}
	}
}

func TestGroupedPercentileIsMedianOfGroups(t *testing.T) {
	fill := func(n int, v float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	// Four reps of 600: two groups of 1200, p99s 2 and 4.
	got, err := groupedPercentile([][]float64{fill(600, 1), fill(600, 2), fill(600, 3), fill(600, 4)}, 99)
	if err != nil || got.Value != 3 || got.N != 2400 {
		t.Fatalf("got %+v, %v; want the median 3 of 2400 samples", got, err)
	}
	// A short last rep folds into the group before it.
	got, err = groupedPercentile([][]float64{fill(600, 1), fill(600, 2), fill(600, 3)}, 99)
	if err != nil || got.Value != 3 {
		t.Fatalf("got %+v, %v; want one group with p99 3", got, err)
	}
	// One stalled rep among five moves one group only.
	got, err = groupedPercentile([][]float64{fill(1000, 1), fill(1000, 1), fill(1000, 500), fill(1000, 1), fill(1000, 1)}, 99)
	if err != nil || got.Value != 1 {
		t.Fatalf("got %+v, %v; want 1", got, err)
	}
	if _, err := groupedPercentile([][]float64{fill(500, 1), fill(400, 1)}, 99); err == nil {
		t.Fatal("900 samples accepted for a p99")
	}
}
