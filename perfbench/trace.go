package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nameservice"
	"repro/internal/site"
	"repro/internal/transport"
	"repro/internal/vm"
)

// layer names a span: the boundary call it timed.
type layer uint8

const (
	lCompile  layer = iota // core.Compile
	lSpawn                 // node.Node.Spawn
	lNSLookup              // nameservice lookups
	lNSReg                 // nameservice registrations and lease refreshes
	lSend                  // transport.Transport.Send
	nLayers
)

var layerNames = [nLayers]string{"compiler.compile", "node.spawn", "nameservice.lookup", "nameservice.register", "transport.send"}

// span is one timed call at a layer boundary. sid identifies the site
// (for session, the session) that caused it; 0 when the call does not
// name it.
type span struct {
	layer      layer
	start, end int64 // ns since the tracer's base
	sid        int64
}

func (s span) dur() int64 { return s.end - s.start }

// selfTime is the part of parent's interval that no child span covers.
// Children may overlap each other and stick out of the parent.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, reach := int64(0), parent.start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return parent.dur() - covered
}

// selfTimes returns the self time of every span of layer l: its
// children are the spans of other layers with the same non-zero sid.
func selfTimes(spans []span, l layer) []int64 {
	bySID := map[int64][]span{}
	for _, s := range spans {
		if s.layer != l && s.sid != 0 {
			bySID[s.sid] = append(bySID[s.sid], s)
		}
	}
	var out []int64
	for _, s := range spans {
		if s.layer != l {
			continue
		}
		var kids []span
		if s.sid != 0 {
			kids = bySID[s.sid]
		}
		out = append(out, selfTime(s, kids))
	}
	return out
}

// tracer collects the traced run's spans and boundary counters. Spans
// stay in memory and are written out when the run ends.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span

	sids sync.Map // site name → sid, set before the site is spawned

	frames, bytes atomic.Uint64
	capMu         sync.Mutex
	captured      [][]byte // copies of every frame sent, decoded after the run

	sampMu       sync.Mutex
	inbox, runq  []float64
	stopSampling chan struct{}
	sampled      sync.WaitGroup
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base}
}

func (t *tracer) now() int64 { return time.Since(t.base).Nanoseconds() }

func (t *tracer) add(l layer, start int64, sid int64) {
	s := span{layer: l, start: start, end: t.now(), sid: sid}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) sidOf(siteName string) int64 {
	if v, ok := t.sids.Load(siteName); ok {
		return v.(int64)
	}
	return 0
}

// probe is the site option that keeps the sites' scheduler mirrors
// (run-queue length) current for the Status sampler.
func probe(c *site.Config) { c.Probe = true }

// sample polls Status on the given sites every millisecond until
// stopSample. Only the long-lived sites are sampled: polling hundreds
// of session sites would load the host it measures.
func (t *tracer) sample(sites []*site.Site) {
	t.stopSampling = make(chan struct{})
	t.sampled.Add(1)
	go func() {
		defer t.sampled.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stopSampling:
				return
			case <-tick.C:
			}
			t.sampMu.Lock()
			for _, s := range sites {
				st := s.Status()
				t.inbox = append(t.inbox, float64(st.Inbox))
				t.runq = append(t.runq, float64(st.RunQueue))
			}
			t.sampMu.Unlock()
		}
	}()
}

func (t *tracer) stopSample() {
	if t.stopSampling != nil {
		close(t.stopSampling)
		t.sampled.Wait()
		t.stopSampling = nil
	}
}

// writeTo writes the spans, one per line: rep, layer, start and end
// in ns since the rep began, sid.
func (t *tracer) writeTo(f io.Writer, rep int) error {
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d %s %d %d %d\n", rep, layerNames[s.layer], s.start, s.end, s.sid)
	}
	t.mu.Unlock()
	return w.Flush()
}

func createFile(path string) (*os.File, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return os.Create(path)
}

// tracedTransport times Send and keeps a copy of every frame. It sits
// between the node (and its reliable layer) and the fabric endpoint.
type tracedTransport struct {
	transport.Transport
	t *tracer
}

func (tt tracedTransport) Send(dst transport.NodeID, frame []byte) error {
	start := tt.t.now()
	err := tt.Transport.Send(dst, frame)
	tt.t.add(lSend, start, 0)
	tt.t.frames.Add(1)
	tt.t.bytes.Add(uint64(len(frame)))
	c := append([]byte(nil), frame...)
	tt.t.capMu.Lock()
	tt.t.captured = append(tt.t.captured, c)
	tt.t.capMu.Unlock()
	return err
}

// tracedNS times every name-service call. Registrations name the
// calling site, so their spans carry its sid; lookups name the target.
type tracedNS struct {
	inner nameservice.Service
	t     *tracer
}

var _ nameservice.Service = tracedNS{}

func (n tracedNS) reg(start int64, siteName string) {
	n.t.add(lNSReg, start, n.t.sidOf(siteName))
}

func (n tracedNS) look(start int64) {
	n.t.add(lNSLookup, start, 0)
}

func (n tracedNS) RegisterSite(ctx context.Context, name string, s, nd, epoch uint32) error {
	start := n.t.now()
	defer n.reg(start, name)
	return n.inner.RegisterSite(ctx, name, s, nd, epoch)
}

func (n tracedNS) LookupSite(ctx context.Context, name string) (uint32, uint32, error) {
	start := n.t.now()
	defer n.look(start)
	return n.inner.LookupSite(ctx, name)
}

func (n tracedNS) RegisterName(ctx context.Context, siteName, id string, heap uint32, sig string) error {
	start := n.t.now()
	defer n.reg(start, siteName)
	return n.inner.RegisterName(ctx, siteName, id, heap, sig)
}

func (n tracedNS) LookupName(ctx context.Context, siteName, id string) (vm.NetRef, string, error) {
	start := n.t.now()
	defer n.look(start)
	return n.inner.LookupName(ctx, siteName, id)
}

func (n tracedNS) RegisterClass(ctx context.Context, siteName, class string, sig string) error {
	start := n.t.now()
	defer n.reg(start, siteName)
	return n.inner.RegisterClass(ctx, siteName, class, sig)
}

func (n tracedNS) LookupClass(ctx context.Context, siteName, class string) (vm.NetClass, string, error) {
	start := n.t.now()
	defer n.look(start)
	return n.inner.LookupClass(ctx, siteName, class)
}

func (n tracedNS) KeepAlive(ctx context.Context, siteName string, epoch uint32) error {
	start := n.t.now()
	defer n.reg(start, siteName)
	return n.inner.KeepAlive(ctx, siteName, epoch)
}

func (n tracedNS) RegisterEndpoint(ctx context.Context, nd uint32, kind, addr string) error {
	start := n.t.now()
	defer n.reg(start, "")
	return n.inner.RegisterEndpoint(ctx, nd, kind, addr)
}

func (n tracedNS) Endpoints(ctx context.Context, kind string) (map[uint32]string, error) {
	start := n.t.now()
	defer n.look(start)
	return n.inner.Endpoints(ctx, kind)
}

// spanStats summarises one layer's spans over ops operations.
type spanStats struct {
	count      int
	durs       []float64 // ns
	busy, self int64     // ns, summed
}

func (t *tracer) layerStats(l layer) spanStats {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	var st spanStats
	for _, s := range spans {
		if s.layer == l {
			st.count++
			st.durs = append(st.durs, float64(s.dur()))
			st.busy += s.dur()
		}
	}
	for _, x := range selfTimes(spans, l) {
		st.self += x
	}
	return st
}

// spanFile is where a traced run writes its spans, under the build
// directory the benchmark already keeps out of version control.
func spanFile(workload string, seed uint64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.txt", workload, seed))
}
