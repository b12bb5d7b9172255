// Command perfbench is the repository's benchmark. It runs one of
// three workloads — rpc, local, session — in this process, on nodes it
// assembles over the in-memory fabric with the ideal link, so no
// traffic crosses a real link or loopback. It checks every output and
// prints the end-to-end metrics, or, with --trace 1, the per-layer
// metrics, as the last line of standard output:
//
//	go run . --workload rpc --seed 1 --seconds 10 --trace 0
//
// A run repeats fixed-size reps until --seconds have passed. Each rep
// assembles fresh nodes, spawns the workload's sites, warms up, times
// a window of its ops and tears down; times are medians over reps,
// latency percentiles are taken over the pooled window samples.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/site"
	"repro/internal/transport"
)

const (
	repTimeout = 40 * time.Second  // a rep that takes longer has lost ops
	runBudget  = 150 * time.Second // no new rep starts after this
	minReps    = 3                 // untraced reps, so setup_s is a median
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: local, rpc or session")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --trace 0|1, --seconds > 0\n", workloadNames())
		return 2
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload runs reps until d has passed. Untraced, it reports the
// end-to-end metrics. Traced, it alternates untraced and traced reps:
// the traced ones give the per-layer metrics, and the two kinds
// together the tracing overhead.
func runWorkload(w *workload, seed uint64, d time.Duration, traced bool, log io.Writer) (*result, error) {
	in := genInputs(seed)
	fmt.Fprintf(log, "perfbench: workload=%s seed=%d cpus=%d gomaxprocs=%d %s, in-process fabric (ideal link)\n",
		w.name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var plain, withTrace []*repResult
	enough := func() bool {
		if traced {
			return len(plain) >= 1 && len(withTrace) >= 1
		}
		return len(plain) >= minReps
	}
	start := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(start); el > runBudget || (el >= d && enough()) {
			break
		}
		tr := traced && i%2 == 1
		rr, err := runRep(w, in, tr)
		if err != nil {
			return nil, err
		}
		p50, _ := percentile(rr.lat, 50)
		p99, _ := percentile(rr.lat, 99)
		fmt.Fprintf(log, "rep %d traced=%v: %d/%d ok, %.0f ops/s, p50 %.0fus, p99 %.0fus of %d, setup %.3fs\n",
			i, tr, rr.good, w.ops, rr.opsPerS, p50.Value, p99.Value, p99.N, rr.setupS)
		if tr {
			withTrace = append(withTrace, rr)
		} else {
			plain = append(plain, rr)
		}
		if rr.failed > 0 {
			break
		}
	}
	res := &result{}
	for _, rr := range append(append([]*repResult(nil), plain...), withTrace...) {
		res.Attempted += w.ops
		res.Failed += rr.failed
		for _, e := range rr.errs {
			fmt.Fprintln(log, "check failed:", e)
		}
	}
	res.Correct = res.Failed == 0
	if !res.Correct {
		res.Metrics = map[string]metric{}
		return res, nil
	}
	var err error
	if !traced {
		res.Metrics, err = endToEnd(w, plain, log)
		return res, err
	}
	if res.Metrics, err = perLayer(withTrace, plain, log); err != nil {
		return nil, err
	}
	var spans []*tracer
	for _, rr := range withTrace {
		spans = append(spans, rr.tr)
	}
	if err := writeSpans(spanFile(w.name, seed), spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// endToEnd reduces untraced reps to the end-to-end metrics.
func endToEnd(w *workload, reps []*repResult, log io.Writer) (map[string]metric, error) {
	var setup, retained []float64
	var lat [][]float64
	var winOps, winS, cpuUs float64
	good, attempted := 0, 0
	for _, rr := range reps {
		setup = append(setup, rr.setupS)
		retained = append(retained, rr.retainedMB)
		lat = append(lat, rr.lat)
		winOps += rr.winOps
		winS += rr.winOps / rr.opsPerS
		cpuUs += rr.cpuUsPerOp * rr.winOps
		good += rr.good
		attempted += w.ops
	}
	p50, err := groupedPercentile(lat, 50)
	if err != nil {
		return nil, err
	}
	p99, err := groupedPercentile(lat, 99)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "latency over %d reps: p50 %.1fus p99 %.1fus, medians over groups of ≥1000 of %d samples\n",
		len(reps), p50.Value, p99.Value, p99.N)
	return map[string]metric{
		"ops_per_s":     {winOps / winS, "1/s"},
		"p50_us":        {p50.Value, "us"},
		"p99_us":        {p99.Value, "us"},
		"setup_s":       {median(setup), "s"},
		"retained_mb":   {median(retained), "MB"},
		"cpu_us_per_op": {cpuUs / winOps, "us"},
		"ok_ratio":      {float64(good) / float64(attempted), "ratio"},
	}, nil
}

// rep is one assembly of nodes running one workload's fixed batch of ops.
type rep struct {
	w    *workload
	in   *inputs
	tr   *tracer // nil when untraced
	base time.Time

	fabric *transport.Fabric
	nodes  []*node.Node
	opts   []node.SiteOption
	rec    *recorder

	fixed    []*site.Site // the long-lived sites the workload starts with
	fixedSID int64

	marks   [2]mark // written by the recorder's mark callback
	markSet sync.WaitGroup

	gen       sync.WaitGroup // the session generator
	due, sent []int64        // per session, ns since base
	failOnce  sync.Once
	failed    chan error
	aborted   atomic.Bool
}

// mark is the state at a window boundary.
type mark struct {
	t   int64 // ns since base
	cpu time.Duration
	mem runtime.MemStats // traced reps only
}

func (r *rep) now() int64 { return time.Since(r.base).Nanoseconds() }

func (r *rep) mark(i int) {
	m := mark{t: r.now(), cpu: cpuTime()}
	if r.tr != nil {
		runtime.ReadMemStats(&m.mem)
	}
	r.marks[i] = m
	r.markSet.Done()
}

// abort ends the rep early: the generator could not offer an op.
func (r *rep) abort(err error) {
	r.aborted.Store(true)
	r.failOnce.Do(func() { r.failed <- err })
}

// spawn compiles a site's source and spawns it, as TyCOsh does for a
// submitted program. sid tags the spans this causes.
func (r *rep) spawn(n *node.Node, name, src string, sid int64, out io.Writer) (*site.Site, error) {
	if r.tr == nil {
		prog, err := core.Compile(name, src)
		if err != nil {
			return nil, err
		}
		return n.Spawn(prog.Name, prog.SiteProgram(), out, r.opts...)
	}
	r.tr.sids.Store(name, sid)
	t0 := r.tr.now()
	prog, err := core.Compile(name, src)
	r.tr.add(lCompile, t0, sid)
	if err != nil {
		return nil, err
	}
	t1 := r.tr.now()
	s, err := n.Spawn(prog.Name, prog.SiteProgram(), out, r.opts...)
	r.tr.add(lSpawn, t1, sid)
	return s, err
}

// repResult is what one rep measured.
type repResult struct {
	setupS, opsPerS, retainedMB, cpuUsPerOp float64
	winOps                                  float64   // ops in the timed window
	lat                                     []float64 // µs, window ops
	good, failed                            int
	errs                                    []string
	tr                                      *tracer
	layer                                   *layerData // traced reps only
}

func runRep(w *workload, in *inputs, traced bool) (*repResult, error) {
	r := &rep{w: w, in: in, failed: make(chan error, 1)}
	warm, end := window(w.ops)
	// Sized before the heap baseline so the benchmark's own buffers do
	// not count as retained by the system.
	r.rec = newRecorder(time.Time{}, w.ops+w.ops/4+16, w.ops, []int{warm, end}, r.mark)
	r.markSet.Add(2)
	runtime.GC()
	heap0 := liveHeap()

	r.base = time.Now()
	r.rec.base = r.base
	var ns nameservice.Service = nameservice.NewCentral()
	if traced {
		r.tr = newTracer(r.base)
		ns = tracedNS{inner: ns, t: r.tr}
		r.opts = []node.SiteOption{probe}
	}
	r.fabric = transport.NewFabric(transport.Ideal)
	defer r.teardown()
	for id := uint32(1); id <= uint32(w.nodes); id++ {
		mem, err := r.fabric.Attach(id)
		if err != nil {
			return nil, err
		}
		var t transport.Transport = mem
		if traced {
			t = tracedTransport{Transport: mem, t: r.tr}
		}
		// The zero-value node config core.NewCluster passes, plus
		// reliable delivery; the coalescer runs with its defaults.
		r.nodes = append(r.nodes, node.New(node.Config{
			ID:              id,
			NS:              ns,
			Transport:       t,
			Reliability:     &transport.ReliableConfig{},
			Epoch:           1,
			CheckpointEvery: 64,
		}))
	}
	if err := w.start(r); err != nil {
		return nil, fmt.Errorf("%s: start: %w", w.name, err)
	}
	if r.tr != nil {
		r.tr.sample(r.fixed)
	}

	res := &repResult{tr: r.tr}
	timer := time.NewTimer(repTimeout)
	defer timer.Stop()
	select {
	case <-r.rec.done:
		r.markSet.Wait()
	case err := <-r.failed:
		res.errs = append(res.errs, err.Error())
	case <-timer.C:
		res.errs = append(res.errs, fmt.Sprintf("%s: timed out after %v", w.name, repTimeout))
	}
	r.gen.Wait()
	if r.tr != nil {
		r.tr.stopSample()
	}
	runtime.GC()
	res.retainedMB = float64(liveHeap()-heap0) / 1e6
	if r.tr != nil {
		res.layer = r.collect()
	}

	recs, overflow := r.rec.lines()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].t < recs[j].t })
	good, junk, lat := w.check(r, recs)
	res.good, res.lat = good, lat
	res.failed = min(w.ops, w.ops-good+junk+overflow)
	if junk+overflow > 0 {
		res.errs = append(res.errs, fmt.Sprintf("%s: %d lines wrong, repeated or unexpected", w.name, junk+overflow))
	}
	if w.ops-good > 0 {
		res.errs = append(res.errs, fmt.Sprintf("%s: %d of %d ops not completed correctly", w.name, w.ops-good, w.ops))
	}
	if res.failed > 0 {
		return res, nil
	}
	m0, m1 := r.marks[0], r.marks[1]
	winOps := float64(end - warm)
	res.winOps = winOps
	res.setupS = float64(m0.t) / 1e9
	res.opsPerS = winOps / (float64(m1.t-m0.t) / 1e9)
	res.cpuUsPerOp = float64(m1.cpu-m0.cpu) / 1e3 / winOps
	if l := res.layer; l != nil {
		l.mallocs = float64(m1.mem.Mallocs-m0.mem.Mallocs) / winOps
		l.allocBytes = float64(m1.mem.TotalAlloc-m0.mem.TotalAlloc) / winOps
		l.gcCycles = float64(m1.mem.NumGC - m0.mem.NumGC)
		l.gcPauseMs = float64(m1.mem.PauseTotalNs-m0.mem.PauseTotalNs) / 1e6
		for i := range r.due {
			l.late = append(l.late, float64(r.sent[i]-r.due[i])/1e6)
		}
		if err := l.account(); err != nil {
			res.errs = append(res.errs, fmt.Sprintf("%s: %v", w.name, err))
			res.failed = w.ops
		}
	}
	return res, nil
}

func (r *rep) teardown() {
	for _, n := range r.nodes {
		n.Stop()
	}
	r.fabric.Close()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for a bad pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// writeSpans writes the spans of every traced rep to path.
func writeSpans(path string, ts []*tracer) error {
	f, err := createFile(path)
	if err != nil {
		return err
	}
	for i, t := range ts {
		if err := t.writeTo(f, i); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
