package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/site"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// layerData is what one traced rep measured at the layer boundaries.
// Counts cover the whole rep (set-up included) and are divided by all
// of its ops; the runtime figures cover the timed window only.
type layerData struct {
	ops int

	frames, bytes uint64
	rel           transport.ReliableStats // summed over nodes

	dataFrames, envelopes, mobility int // distinct data frames and the envelopes in them
	decodeNs                        float64
	remote, local                   uint64

	sites                              int
	inbox, runq                        []float64
	unitsLinked, fetchRetries, exports uint64
	instr, threads, chans              uint64

	spans                                    [nLayers]spanStats
	spawnFirst, spawnLast                    []float64 // µs, first and last tenth of spawns
	mallocs, allocBytes, gcCycles, gcPauseMs float64
	late                                     []float64 // ms, generator lateness per session
}

// collect reads the traced rep's counters once every op has completed,
// before teardown.
func (r *rep) collect() *layerData {
	l := &layerData{ops: r.w.ops}
	t := r.tr
	l.frames, l.bytes = t.frames.Load(), t.bytes.Load()
	for _, n := range r.nodes {
		st := n.Reliable().Stats()
		l.rel.DataSent += st.DataSent
		l.rel.AcksSent += st.AcksSent
		l.rel.AckPiggy += st.AckPiggy
		l.rel.Retransmits += st.Retransmits
		l.rel.DupDrops += st.DupDrops
		l.remote += n.RemoteDeliveries()
		l.local += n.LocalDeliveries()
	}
	t.capMu.Lock()
	frames := t.captured
	t.capMu.Unlock()
	l.decodeFrames(frames)

	// Every site is idle now, so reading the machines races nothing.
	var sites []*site.Site
	for _, n := range r.nodes {
		sites = append(sites, n.Sites()...)
	}
	for _, s := range sites {
		l.sites++
		l.unitsLinked += s.UnitsLinked
		l.fetchRetries += s.FetchRetries()
		l.exports += uint64(s.ExportCount())
		m := s.Machine()
		l.instr += m.Stats.Instructions
		l.threads += m.Stats.Threads
		l.chans += uint64(m.HeapSize())
	}
	t.sampMu.Lock()
	l.inbox, l.runq = t.inbox, t.runq
	t.sampMu.Unlock()
	for i := range l.spans {
		l.spans[i] = t.layerStats(layer(i))
	}
	spawns := l.spans[lSpawn].durs
	tenth := max(1, len(spawns)/10)
	for _, d := range spawns[:tenth] {
		l.spawnFirst = append(l.spawnFirst, d/1e3)
	}
	for _, d := range spawns[len(spawns)-tenth:] {
		l.spawnLast = append(l.spawnLast, d/1e3)
	}
	return l
}

// decodeFrames counts the envelopes the captured reliable-layer packets
// carry, then times decoding them all again.
func (l *layerData) decodeFrames(frames [][]byte) {
	seen := map[[3]uint64]bool{}
	for _, f := range frames {
		p, err := wire.DecodePacket(f)
		if err != nil || p.Type != wire.FData {
			continue
		}
		key := [3]uint64{uint64(p.Src), uint64(p.Epoch), p.Seq}
		if seen[key] {
			continue // a retransmission: the receiver drops it
		}
		seen[key] = true
		l.dataFrames++
		envs, err := decodeEnvelopes(p.Payload)
		if err != nil {
			continue
		}
		for _, e := range envs {
			l.envelopes++
			switch e.Type {
			case wire.FMsg, wire.FObj, wire.FFetchReq, wire.FFetchRep:
				l.mobility++
			}
		}
	}
	if len(frames) == 0 {
		return
	}
	var n int
	start := time.Now()
	for time.Since(start) < 20*time.Millisecond {
		for _, f := range frames {
			if p, err := wire.DecodePacket(f); err == nil && p.Type == wire.FData {
				_, _ = decodeEnvelopes(p.Payload)
			}
		}
		n += len(frames)
	}
	l.decodeNs = float64(time.Since(start).Nanoseconds()) / float64(n)
}

func decodeEnvelopes(payload []byte) ([]wire.Envelope, error) {
	if wire.IsBatch(payload) {
		return wire.DecodeBatch(payload)
	}
	e, err := wire.DecodeEnvelope(payload)
	if err != nil {
		return nil, err
	}
	return []wire.Envelope{*e}, nil
}

// account checks that the envelopes carried in data frames account for
// every delivery the nodes counted as remote.
func (l *layerData) account() error {
	if uint64(l.mobility) != l.remote {
		return fmt.Errorf("data frames carried %d mobility envelopes, nodes counted %d remote deliveries", l.mobility, l.remote)
	}
	return nil
}

// bareVMUsPerJob runs the local workload's kernel, one fib(K) job at a
// time, on a bare machine: the VM's share of a local job.
func bareVMUsPerJob() (float64, error) {
	p, err := core.Compile("bare", fmt.Sprintf(`
%s
in new r (Fib[%d, r] | r?(v) = inaction)`, fibDef, fibK))
	if err != nil {
		return 0, err
	}
	prog := vm.NewProgram()
	linked, err := prog.Link(p.Unit, nil, nil)
	if err != nil {
		return 0, err
	}
	const jobs = 300
	start := time.Now()
	for i := 0; i < jobs; i++ {
		m := vm.NewMachine(prog, io.Discard, nil)
		m.Spawn(linked.Entry, nil)
		if err := m.RunToQuiescence(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Microseconds()) / jobs, nil
}

// perLayer reduces the traced reps to the per-layer metrics. plain are
// the untraced reps of the same run; the difference between the two
// kinds is the tracing overhead.
func perLayer(reps, plain []*repResult, log io.Writer) (map[string]metric, error) {
	var a layerData
	var spawnFirst, spawnLast, sendNs, spawnUs, compileUs, lookupUs, regUs []float64
	var retained, sites []float64
	var sp [nLayers]spanStats
	for _, rr := range reps {
		l := rr.layer
		a.ops += l.ops
		a.frames += l.frames
		a.bytes += l.bytes
		a.rel.DataSent += l.rel.DataSent
		a.rel.AcksSent += l.rel.AcksSent
		a.rel.AckPiggy += l.rel.AckPiggy
		a.rel.Retransmits += l.rel.Retransmits
		a.rel.DupDrops += l.rel.DupDrops
		a.dataFrames += l.dataFrames
		a.envelopes += l.envelopes
		a.decodeNs += l.decodeNs * float64(l.frames)
		a.remote += l.remote
		a.local += l.local
		a.inbox = append(a.inbox, l.inbox...)
		a.runq = append(a.runq, l.runq...)
		a.unitsLinked += l.unitsLinked
		a.fetchRetries += l.fetchRetries
		a.exports += l.exports
		a.instr += l.instr
		a.threads += l.threads
		a.chans += l.chans
		a.mallocs += l.mallocs
		a.allocBytes += l.allocBytes
		a.gcCycles += l.gcCycles
		a.gcPauseMs += l.gcPauseMs
		a.late = append(a.late, l.late...)
		spawnFirst = append(spawnFirst, l.spawnFirst...)
		spawnLast = append(spawnLast, l.spawnLast...)
		sites = append(sites, float64(l.sites))
		retained = append(retained, rr.retainedMB*1e3/float64(l.sites))
		for i := range sp {
			sp[i].count += l.spans[i].count
			sp[i].busy += l.spans[i].busy
			sp[i].self += l.spans[i].self
			sp[i].durs = append(sp[i].durs, l.spans[i].durs...)
		}
	}
	nReps := float64(len(reps))
	ops := float64(a.ops)
	perOp := func(x float64) float64 { return x / ops }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	scale := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	sendNs = sp[lSend].durs
	spawnUs = scale(sp[lSpawn].durs, 1e-3)
	compileUs = scale(sp[lCompile].durs, 1e-3)
	lookupUs = scale(sp[lNSLookup].durs, 1e-3)
	regUs = scale(sp[lNSReg].durs, 1e-3)
	pct := func(name string, xs []float64, p float64) float64 {
		if len(xs) == 0 {
			fmt.Fprintf(log, "%s: no samples, reads 0\n", name)
			return 0
		}
		t, err := percentile(xs, p)
		if err != nil {
			fmt.Fprintf(log, "%s: %v\n", name, err)
		}
		return t.Value
	}
	bare, err := bareVMUsPerJob()
	if err != nil {
		return nil, fmt.Errorf("bare vm: %w", err)
	}
	nsCount := float64(sp[lNSLookup].count + sp[lNSReg].count)
	nsBusy := float64(sp[lNSLookup].busy + sp[lNSReg].busy)
	nsSelf := float64(sp[lNSLookup].self + sp[lNSReg].self)
	pctDiff := func(x, base float64) float64 { return (x - base) / base * 100 }
	opsP50 := func(rs []*repResult) (float64, float64) {
		var ops, lat []float64
		for _, rr := range rs {
			ops = append(ops, rr.opsPerS)
			lat = append(lat, rr.lat...)
		}
		return median(ops), median(lat)
	}
	plainOps, plainP50 := opsP50(plain)
	tracedOps, tracedP50 := opsP50(reps)

	m := map[string]metric{
		"transport.frames_per_op":           {perOp(float64(a.frames)), "count"},
		"transport.bytes_per_op":            {perOp(float64(a.bytes)), "B"},
		"transport.send_ns_p50":             {pct("transport.send_ns_p50", sendNs, 50), "ns"},
		"transport.send_count":              {float64(sp[lSend].count) / nReps, "count"},
		"transport.send_busy_ns_per_op":     {perOp(float64(sp[lSend].busy)), "ns"},
		"transport.send_self_ns_per_op":     {perOp(float64(sp[lSend].self)), "ns"},
		"transport.reliable.acks_per_data":  {ratio(float64(a.rel.AcksSent), float64(a.rel.DataSent)), "ratio"},
		"transport.reliable.piggy_per_data": {ratio(float64(a.rel.AckPiggy), float64(a.rel.DataSent)), "ratio"},
		"transport.reliable.retransmits":    {float64(a.rel.Retransmits) / nReps, "count"},
		"transport.reliable.dup_drops":      {float64(a.rel.DupDrops) / nReps, "count"},
		"wire.envelopes_per_frame":          {ratio(float64(a.envelopes), float64(a.dataFrames)), "count"},
		"wire.decode_ns_per_frame":          {ratio(a.decodeNs, float64(a.frames)), "ns"},
		"node.remote_deliveries_per_op":     {perOp(float64(a.remote)), "count"},
		"node.local_deliveries_per_op":      {perOp(float64(a.local)), "count"},
		"node.spawn_us_p50":                 {pct("node.spawn_us_p50", spawnUs, 50), "us"},
		"node.spawn_us_p99":                 {pct("node.spawn_us_p99", spawnUs, 99), "us"},
		"node.spawn_us_p50_first":           {median(spawnFirst), "us"},
		"node.spawn_us_p50_last":            {median(spawnLast), "us"},
		"node.spawn_count":                  {float64(sp[lSpawn].count) / nReps, "count"},
		"node.spawn_busy_us_per_op":         {perOp(float64(sp[lSpawn].busy) / 1e3), "us"},
		"node.spawn_self_us_per_op":         {perOp(float64(sp[lSpawn].self) / 1e3), "us"},
		"node.sites":                        {median(sites), "count"},
		"node.retained_kb_per_site":         {median(retained), "KB"},
		"site.inbox_depth_p99":              {pct("site.inbox_depth_p99", a.inbox, 99), "count"},
		"site.runq_p99":                     {pct("site.runq_p99", a.runq, 99), "count"},
		"site.units_linked_per_op":          {perOp(float64(a.unitsLinked)), "count"},
		"site.fetch_retries":                {float64(a.fetchRetries) / nReps, "count"},
		"site.exports_per_op":               {perOp(float64(a.exports)), "count"},
		"vm.instr_per_op":                   {perOp(float64(a.instr)), "count"},
		"vm.threads_per_op":                 {perOp(float64(a.threads)), "count"},
		"vm.chans_per_op":                   {perOp(float64(a.chans)), "count"},
		"vm.bare_us_per_op":                 {bare, "us"},
		"compiler.compile_us_p50":           {pct("compiler.compile_us_p50", compileUs, 50), "us"},
		"compiler.compile_count":            {float64(sp[lCompile].count) / nReps, "count"},
		"compiler.compile_busy_us_per_op":   {perOp(float64(sp[lCompile].busy) / 1e3), "us"},
		"compiler.compile_self_us_per_op":   {perOp(float64(sp[lCompile].self) / 1e3), "us"},
		"nameservice.calls_per_op":          {perOp(nsCount), "count"},
		"nameservice.count":                 {nsCount / nReps, "count"},
		"nameservice.lookup_us_p99":         {pct("nameservice.lookup_us_p99", lookupUs, 99), "us"},
		"nameservice.register_us_p50":       {pct("nameservice.register_us_p50", regUs, 50), "us"},
		"nameservice.busy_us_per_op":        {perOp(nsBusy / 1e3), "us"},
		"nameservice.self_us_per_op":        {perOp(nsSelf / 1e3), "us"},
		"runtime.allocs_per_op":             {a.mallocs / nReps, "count"},
		"runtime.alloc_bytes_per_op":        {a.allocBytes / nReps, "B"},
		"runtime.gc_cycles":                 {a.gcCycles / nReps, "count"},
		"runtime.gc_pause_ms":               {a.gcPauseMs / nReps, "ms"},
		"loadgen.late_p99_ms":               {pct("loadgen.late_p99_ms", a.late, 99), "ms"},
		"tracing.overhead_ops_pct":          {-pctDiff(tracedOps, plainOps), "%"},
		"tracing.overhead_p50_pct":          {pctDiff(tracedP50, plainP50), "%"},
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "  %-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return m, nil
}
