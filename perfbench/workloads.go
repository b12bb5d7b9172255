package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"repro/internal/node"
	"repro/internal/site"
)

// Workload sizes. A run repeats a rep of fixed size (fresh nodes, set
// up, warm up, measure, tear down) until its time is spent, so every
// rep does the same work and retained heap is compared like for like.
const (
	rpcCallers = 64   // concurrent closed-loop callers in the client site
	rpcCalls   = 1000 // sequential calls per caller per rep

	localWorkers = 2   // worker sites
	localJobs    = 400 // fib jobs per worker per rep
	fibK         = 11  // fib(11): 287 reductions, ~8k instructions

	sessions    = 600 // sessions offered per rep
	sessionRate = 500 // sessions offered per second
	sessionMinU = 1   // applet instantiations per session, drawn from
	sessionMaxU = 8   // [sessionMinU, sessionMaxU] by the seed

	appletTerms = 64 // E4's applet body: n + 0 + 1 + … over 64 terms
)

// Each rep starts timing after warmShare of its ops and stops before
// the last coolShare, so the window sees neither ramp-up nor the drain
// of the last closed loops.
const (
	warmShare = 0.10
	coolShare = 0.05
)

// inputs are the generated inputs of one run; the seed fixes them and
// every rep of the run reuses them.
type inputs struct {
	rpcStart []int64 // first argument of each rpc caller
	sessA    []int64 // applet argument base of each session
	sessU    []int   // applet instantiations of each session
}

func genInputs(seed uint64) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x7479636f))
	in := &inputs{}
	for i := 0; i < rpcCallers; i++ {
		in.rpcStart = append(in.rpcStart, rng.Int64N(1_000_000))
	}
	for i := 0; i < sessions; i++ {
		in.sessA = append(in.sessA, rng.Int64N(1000))
		in.sessU = append(in.sessU, sessionMinU+rng.IntN(sessionMaxU-sessionMinU+1))
	}
	return in
}

// workload is one of the benchmark's traffic mixes.
type workload struct {
	name  string
	nodes int
	ops   int // per rep
	// start spawns the workload's sites on the rep's nodes.
	start func(r *rep) error
	// check validates the recorded lines (sorted by time) and returns
	// the ops done correctly exactly once, the lines that match no op
	// or repeat one, and the latencies (µs) of ops in the window.
	check func(r *rep, recs []record) (good, junk int, lat []float64)
}

var workloads = map[string]*workload{
	"rpc": {
		name: "rpc", nodes: 2, ops: rpcCallers * rpcCalls,
		start: startRPC, check: checkRPC,
	},
	"local": {
		name: "local", nodes: 1, ops: localWorkers * localJobs,
		start: startLocal, check: checkLocal,
	},
	"session": {
		name: "session", nodes: 2, ops: sessions,
		start: startSession, check: checkSession,
	},
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// window returns the completion indices [warm, end) a rep measures.
func window(ops int) (warm, end int) {
	return int(warmShare * float64(ops)), ops - int(coolShare*float64(ops))
}

// --- rpc ---

const rpcServer = `
def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p])
in export new p Serve[p]`

func rpcClient(in *inputs) string {
	var b strings.Builder
	b.WriteString(`import p from server in
def Call(id, x, n) = if n == 0 then inaction
                     else let y = p![x] in (println(id, x, y) | Call[id, y, n - 1])
in (`)
	for i, x := range in.rpcStart {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "Call[%d, %d, %d]", i, x, rpcCalls)
	}
	b.WriteString(")")
	return b.String()
}

func startRPC(r *rep) error {
	if _, err := r.spawnFixed(r.nodes[0], "server", rpcServer, io.Discard); err != nil {
		return err
	}
	_, err := r.spawnFixed(r.nodes[1], "client", rpcClient(r.in), r.rec)
	return err
}

// checkRPC: every reply is its argument + 1, and caller i sees exactly
// the replies to start[i], start[i]+1, …, one each.
func checkRPC(r *rep, recs []record) (int, int, []float64) {
	return closedLoop(r, recs, rpcCallers, rpcCalls, func(rec record) (int, int, bool) {
		id, x, y := rec.v[0], rec.v[1], rec.v[2]
		if rec.n != 3 || id < 0 || id >= rpcCallers || y != x+1 {
			return 0, 0, false
		}
		return int(id), int(x - r.in.rpcStart[id]), true
	})
}

// --- local ---

const localCollector = `
def Collect(c) = c?(w, j, v) = (println(w, j, v) | Collect[c])
in export new c Collect[c]`

// fibDef is E3's fib probe, the local workload's job.
const fibDef = `def Fib(n, r) = if n < 2 then r![n]
                else new a new b (Fib[n - 1, a] | Fib[n - 2, b] |
                     a?(x) = b?(y) = r![x + y])`

func localWorker(w int) string {
	return fmt.Sprintf(`import c from collector in
%s
and Loop(j) = if j == %d then inaction
              else new r (Fib[%d, r] | r?(v) = (c![%d, j, v] | Loop[j + 1]))
in Loop[0]`, fibDef, localJobs, fibK, w)
}

func fib(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

func startLocal(r *rep) error {
	n := r.nodes[0]
	if _, err := r.spawnFixed(n, "collector", localCollector, r.rec); err != nil {
		return err
	}
	for w := 0; w < localWorkers; w++ {
		if _, err := r.spawnFixed(n, fmt.Sprintf("worker%d", w), localWorker(w), io.Discard); err != nil {
			return err
		}
	}
	return nil
}

// checkLocal: every job of every worker arrives once, carrying fib(K).
func checkLocal(r *rep, recs []record) (int, int, []float64) {
	want := fib(fibK)
	return closedLoop(r, recs, localWorkers, localJobs, func(rec record) (int, int, bool) {
		w, j, v := rec.v[0], rec.v[1], rec.v[2]
		if rec.n != 3 || w < 0 || w >= localWorkers || v != want {
			return 0, 0, false
		}
		return int(w), int(j), true
	})
}

// closedLoop checks the lines of a workload whose keys (callers,
// workers) each run a closed loop of perKey ops. op maps a line to its
// key and the op's slot in [0, perKey), or fails. A loop's next op
// starts when its previous one completes, so an op's latency is the
// time between its key's consecutive lines.
func closedLoop(r *rep, recs []record, keys, perKey int, op func(record) (key, slot int, ok bool)) (good, junk int, lat []float64) {
	warm, end := window(r.w.ops)
	seen := make([][]bool, keys)
	prev := make([]int64, keys)
	for i := range seen {
		seen[i] = make([]bool, perKey)
		prev[i] = -1
	}
	for i, rec := range recs {
		key, slot, ok := op(rec)
		if !ok || slot < 0 || slot >= perKey || seen[key][slot] {
			junk++
			continue
		}
		seen[key][slot] = true
		good++
		if i >= warm && i < end && prev[key] >= 0 {
			lat = append(lat, float64(rec.t-prev[key])/1e3)
		}
		prev[key] = rec.t
	}
	return good, junk, lat
}

// --- session ---

const sessionServer = `
export def Applet(n, r) = %s
in def Log(l) = l?(id, v) = (println(id, v) | Log[l])
in export new log Log[log]`

func appletBody() string {
	var b strings.Builder
	b.WriteString("r![n")
	for i := 0; i < appletTerms; i++ {
		fmt.Fprintf(&b, " + %d", i%7)
	}
	b.WriteString("]")
	return b.String()
}

// applet is what the server's Applet answers for n.
func applet(n int64) int64 {
	for i := 0; i < appletTerms; i++ {
		n += int64(i % 7)
	}
	return n
}

func sessionSource(id int, a int64, u int) string {
	return fmt.Sprintf(`import Applet from server in
import log from server in
def Use(k, acc) = if k == 0 then log![%d, acc]
                  else new r (Applet[%d + k, r] | r?(v) = Use[k - 1, acc + v])
in Use[%d, 0]`, id, a, u)
}

// sessionWant is the value session id must log.
func sessionWant(in *inputs, id int) int64 {
	var acc int64
	for k := 1; k <= in.sessU[id]; k++ {
		acc += applet(in.sessA[id] + int64(k))
	}
	return acc
}

func startSession(r *rep) error {
	src := fmt.Sprintf(sessionServer, appletBody())
	if _, err := r.spawnFixed(r.nodes[0], "server", src, r.rec); err != nil {
		return err
	}
	r.due = make([]int64, sessions)
	r.sent = make([]int64, sessions)
	r.gen.Add(1)
	go r.generate()
	return nil
}

// generate is the open-loop generator: session i is due at
// start + i/sessionRate whatever the system's state. When due, it is
// handed to a goroutine of its own — an independent user submitting
// from their own shell — that compiles its source and spawns it as a
// new site, so one slow submission does not hold back the next.
func (r *rep) generate() {
	defer r.gen.Done()
	period := int64(time.Second) / sessionRate
	first := r.now() + int64(time.Millisecond)
	for i := 0; i < sessions && !r.aborted.Load(); i++ {
		due := first + int64(i)*period
		if d := due - r.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		r.due[i] = due
		r.sent[i] = r.now()
		r.gen.Add(1)
		go func(i int) {
			defer r.gen.Done()
			src := sessionSource(i, r.in.sessA[i], r.in.sessU[i])
			if _, err := r.spawn(r.nodes[1], fmt.Sprintf("s%d", i), src, int64(i+1), io.Discard); err != nil {
				r.abort(fmt.Errorf("session %d: %w", i, err))
			}
		}(i)
	}
}

// checkSession: every session id arrives once, with its applet sum.
// Latency runs from the session's due time, not from when the
// generator got to it, so a stall also charges the sessions it delayed.
func checkSession(r *rep, recs []record) (good, junk int, lat []float64) {
	warm, end := window(sessions)
	seen := make([]bool, sessions)
	done := make([]int64, sessions)
	for _, rec := range recs {
		id := int(rec.v[0])
		if rec.n != 2 || id < 0 || id >= sessions || seen[id] || rec.v[1] != sessionWant(r.in, id) {
			junk++
			continue
		}
		seen[id] = true
		done[id] = rec.t
		good++
	}
	return good, junk, openLoopLatency(r.due[warm:end], done[warm:end], seen[warm:end])
}

// openLoopLatency returns done−due (µs) for every completed op.
func openLoopLatency(due, done []int64, completed []bool) []float64 {
	var lat []float64
	for i := range due {
		if completed[i] {
			lat = append(lat, float64(done[i]-due[i])/1e3)
		}
	}
	return lat
}

// spawnFixed spawns one of the long-lived sites a workload starts with.
func (r *rep) spawnFixed(n *node.Node, name, src string, out io.Writer) (*site.Site, error) {
	r.fixedSID++
	s, err := r.spawn(n, name, src, 1_000_000+r.fixedSID, out)
	if err == nil {
		r.fixed = append(r.fixed, s)
	}
	return s, err
}
