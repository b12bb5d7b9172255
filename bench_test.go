// Package repro's benchmarks wrap the EXPERIMENTS.md workloads in
// testing.B form — one benchmark family per experiment table.
// cmd/tycobench prints the full tables; these targets give per-op
// numbers and allocation profiles:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/syntax"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/vm"
	"repro/internal/wire"
)

// benchProgram is one site submission of a benchmark workload.
type benchProgram struct {
	node int
	site string
	src  string
}

// runWorkload submits the programs to a fresh cluster and waits for
// global termination; the caller brackets it with the benchmark timer.
func runWorkload(b *testing.B, cfg core.ClusterConfig, progs []benchProgram, opts map[string][]node.SiteOption) {
	b.Helper()
	cl, err := core.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Stop()
	for _, p := range progs {
		if _, err := cl.Submit(p.node, p.site, p.src, io.Discard, opts[p.site]...); err != nil {
			b.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := cl.Wait(ctx); err != nil {
		b.Fatalf("wait: %v (cluster: %v)", err, cl.Err())
	}
}

func mustLink(name string) transport.LinkModel {
	m, ok := transport.Profile(name)
	if !ok {
		panic(name)
	}
	return m
}

// pingClient builds the standard ping-pong client: w concurrent
// callers, each performing c sequential remote calls against the
// exported name p.
func pingClient(w, c int) string {
	parts := make([]string, w)
	for i := range parts {
		parts[i] = fmt.Sprintf("Caller[%d]", c)
	}
	return "import p from server in\n" +
		"def Caller(n) = if n == 0 then inaction else let y = p![n] in Caller[n - 1]\nin " +
		strings.Join(parts, " | ")
}

// BenchmarkE1LatencyHiding reports remote calls per second as the
// number of concurrent caller threads grows (EXPERIMENTS.md E1).
func BenchmarkE1LatencyHiding(b *testing.B) {
	server := `def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p]) in export new p Serve[p]`
	for _, callers := range []int{1, 4, 16} {
		for _, link := range []string{"myrinet", "fastether"} {
			b.Run(fmt.Sprintf("callers=%d/%s", callers, link), func(b *testing.B) {
				perCaller := b.N/callers + 1
				b.ResetTimer()
				runWorkload(b, core.ClusterConfig{Nodes: 2, Link: mustLink(link)}, []benchProgram{
					{node: 0, site: "server", src: server},
					{node: 1, site: "client", src: pingClient(callers, perCaller)},
				}, nil)
				b.ReportMetric(float64(callers*perCaller)/b.Elapsed().Seconds(), "calls/s")
			})
		}
	}
}

// BenchmarkE2Locality reports the ping-pong round-trip cost by
// placement (EXPERIMENTS.md E2).
func BenchmarkE2Locality(b *testing.B) {
	server := `def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p]) in export new p Serve[p]`
	clientFor := func(n int) string {
		return fmt.Sprintf(`
import p from server in
def Call(n) = if n == 0 then inaction else let y = p![n] in Call[n - 1]
in Call[%d]`, n)
	}
	b.Run("same-site", func(b *testing.B) {
		src := fmt.Sprintf(`
def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p])
and Call(p, n) = if n == 0 then inaction else let y = p![n] in Call[p, n - 1]
in new p (Serve[p] | Call[p, %d])`, b.N)
		runWorkload(b, core.ClusterConfig{Nodes: 1}, []benchProgram{{node: 0, site: "solo", src: src}}, nil)
	})
	b.Run("same-node", func(b *testing.B) {
		runWorkload(b, core.ClusterConfig{Nodes: 1}, []benchProgram{
			{node: 0, site: "server", src: server},
			{node: 0, site: "client", src: clientFor(b.N)},
		}, nil)
	})
	b.Run("same-node-marshal", func(b *testing.B) {
		runWorkload(b, core.ClusterConfig{Nodes: 1, ForceMarshalLocal: true}, []benchProgram{
			{node: 0, site: "server", src: server},
			{node: 0, site: "client", src: clientFor(b.N)},
		}, nil)
	})
	b.Run("cross-node", func(b *testing.B) {
		runWorkload(b, core.ClusterConfig{Nodes: 2}, []benchProgram{
			{node: 0, site: "server", src: server},
			{node: 1, site: "client", src: clientFor(b.N)},
		}, nil)
	})
	b.Run("cross-node-myrinet", func(b *testing.B) {
		runWorkload(b, core.ClusterConfig{Nodes: 2, Link: mustLink("myrinet")}, []benchProgram{
			{node: 0, site: "server", src: server},
			{node: 1, site: "client", src: clientFor(b.N)},
		}, nil)
	})
}

// benchVM compiles src (parameterized by b.N) and runs it to
// quiescence on a bare machine.
func benchVM(b *testing.B, src string) *vm.Machine {
	b.Helper()
	proc, err := syntax.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := types.Check(proc); err != nil {
		b.Fatal(err)
	}
	unit, err := compiler.Compile(proc, "bench")
	if err != nil {
		b.Fatal(err)
	}
	prog := vm.NewProgram()
	linked, err := prog.Link(unit, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.NewMachine(prog, io.Discard, nil)
	m.Spawn(linked.Entry, nil)
	b.ResetTimer()
	if err := m.RunToQuiescence(); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkE3VM reports raw machine speed (EXPERIMENTS.md E3): b.N is
// the iteration count of each probe program; the reported metric is
// byte-code instructions per second.
func BenchmarkE3VM(b *testing.B) {
	b.Run("loop", func(b *testing.B) {
		m := benchVM(b, fmt.Sprintf(`def L(n) = if n == 0 then inaction else L[n - 1] in L[%d]`, b.N))
		b.ReportMetric(float64(m.Stats.Instructions)/b.Elapsed().Seconds()/1e6, "Minstr/s")
	})
	b.Run("pingpong", func(b *testing.B) {
		m := benchVM(b, fmt.Sprintf(`
def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p])
and Call(p, n) = if n == 0 then inaction else let y = p![n] in Call[p, n - 1]
in new p (Serve[p] | Call[p, %d])`, b.N))
		reds := m.Stats.Communications + m.Stats.Instantiations
		b.ReportMetric(float64(reds)/b.Elapsed().Seconds()/1e6, "Mred/s")
	})
	b.Run("spawn", func(b *testing.B) {
		m := benchVM(b, fmt.Sprintf(`def S(n) = if n == 0 then inaction else (inaction | S[n - 1]) in S[%d]`, b.N))
		b.ReportMetric(float64(m.Stats.Threads)/b.Elapsed().Seconds()/1e6, "Mthreads/s")
	})
}

// BenchmarkE4Applet reports per-use applet delivery cost for the two
// strategies of §4 (EXPERIMENTS.md E4).
func BenchmarkE4Applet(b *testing.B) {
	fetchServer := `export def Applet(n, r) = r![n + 1] in inaction`
	shipServer := `
def AppletServer(self) =
  self ? { get(p) = (p?(n, r) = r![n + 1]) | AppletServer[self] }
in export new appletserver AppletServer[appletserver]`
	fetchClient := func(n int) string {
		return fmt.Sprintf(`
import Applet from server in
def Use(k) = if k == 0 then inaction else new r (Applet[k, r] | r?(v) = Use[k - 1])
in Use[%d]`, n)
	}
	shipClient := func(n int) string {
		return fmt.Sprintf(`
import appletserver from server in
def Use(k) = if k == 0 then inaction
             else new p (appletserver!get[p] | new r (p![k, r] | r?(v) = Use[k - 1]))
in Use[%d]`, n)
	}
	cfg := core.ClusterConfig{Nodes: 2, Link: mustLink("myrinet")}
	b.Run("fetch-cached", func(b *testing.B) {
		runWorkload(b, cfg, []benchProgram{
			{node: 0, site: "server", src: fetchServer},
			{node: 1, site: "client", src: fetchClient(b.N)},
		}, nil)
	})
	b.Run("fetch-nocache", func(b *testing.B) {
		runWorkload(b, cfg, []benchProgram{
			{node: 0, site: "server", src: fetchServer},
			{node: 1, site: "client", src: fetchClient(b.N)},
		}, map[string][]node.SiteOption{"client": {node.WithFetchCacheDisabled()}})
	})
	b.Run("ship", func(b *testing.B) {
		runWorkload(b, cfg, []benchProgram{
			{node: 0, site: "server", src: shipServer},
			{node: 1, site: "client", src: shipClient(b.N)},
		}, nil)
	})
}

// BenchmarkE5RPC reports RPC round-trip cost, local vs remote
// (EXPERIMENTS.md E5).
func BenchmarkE5RPC(b *testing.B) {
	b.Run("local", func(b *testing.B) {
		src := fmt.Sprintf(`
def Serve(p) = p?(x, r) = (r![x * x] | Serve[p])
and Call(p, n) = if n == 0 then inaction else let y = p![n] in Call[p, n - 1]
in new p (Serve[p] | Call[p, %d])`, b.N)
		runWorkload(b, core.ClusterConfig{Nodes: 1}, []benchProgram{{node: 0, site: "solo", src: src}}, nil)
	})
	b.Run("remote-myrinet", func(b *testing.B) {
		server := `def Serve(p) = p?(x, r) = (r![x * x] | Serve[p]) in export new p Serve[p]`
		client := fmt.Sprintf(`
import p from server in
def Call(n) = if n == 0 then inaction else let y = p![n] in Call[n - 1]
in Call[%d]`, b.N)
		runWorkload(b, core.ClusterConfig{Nodes: 2, Link: mustLink("myrinet")}, []benchProgram{
			{node: 0, site: "server", src: server},
			{node: 1, site: "client", src: client},
		}, nil)
	})
}

// BenchmarkE6Seti reports chunk throughput of the SETI master/worker
// workload (EXPERIMENTS.md E6); b.N is the total chunk count.
func BenchmarkE6Seti(b *testing.B) {
	server := `
new database (
  def Data(self, next) = self ? { newChunk(r) = r![next] | Data[self, next + 1] }
  in Data[database, 1] |
  export def Install(limit) = Go[limit]
  and Go(n) = if n == 0 then inaction
              else let data = database!newChunk[] in Go[n - 1]
  in inaction
)`
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			chunks := b.N/workers + 1
			progs := []benchProgram{{node: 0, site: "seti", src: server}}
			for i := 0; i < workers; i++ {
				progs = append(progs, benchProgram{
					node: 1 + i,
					site: fmt.Sprintf("worker%d", i),
					src:  fmt.Sprintf(`import Install from seti in Install[%d]`, chunks),
				})
			}
			runWorkload(b, core.ClusterConfig{Nodes: 1 + workers, Link: mustLink("myrinet")}, progs, nil)
			b.ReportMetric(float64(workers*chunks)/b.Elapsed().Seconds(), "chunks/s")
		})
	}
}

// BenchmarkE7Wire reports wire-format encode/decode costs
// (EXPERIMENTS.md E7).
func BenchmarkE7Wire(b *testing.B) {
	args := make([]wire.Value, 8)
	for i := range args {
		args[i] = wire.Value{Kind: wire.WNet, Net: vm.NetRef{Heap: uint32(i), Site: 3, Node: 2}}
	}
	msg := &wire.Msg{To: vm.NetRef{Heap: 1, Site: 2, Node: 3}, Label: "work", Args: args}
	encoded := msg.Encode()
	b.Run("msg-encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = msg.Encode()
		}
	})
	b.Run("msg-append-pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := wire.GetWriter()
			msg.AppendPayload(w)
			wire.PutWriter(w)
		}
	})
	b.Run("msg-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodeMsg(encoded); err != nil {
				b.Fatal(err)
			}
		}
	})
	unit, err := compiler.Compile(syntax.MustParse(
		`export def Applet(n, r) = r![n + 1 + 2 + 3 + 4 + 5 + 6 + 7] in inaction`), "bench")
	if err != nil {
		b.Fatal(err)
	}
	unitBytes := asm.Encode(unit)
	b.Run("unit-encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = asm.Encode(unit)
		}
	})
	b.Run("unit-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := asm.Decode(unitBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE8Termination reports the cost of one full termination
// detection on an idle cluster (EXPERIMENTS.md E8).
func BenchmarkE8Termination(b *testing.B) {
	for _, sites := range []int{2, 8} {
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			cl, err := core.NewCluster(core.ClusterConfig{Nodes: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Stop()
			for i := 0; i < sites; i++ {
				if _, err := cl.Submit(0, fmt.Sprintf("s%d", i), `println("x")`, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			if err := cl.Wait(ctx); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Wait(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE11Batching reports the frame-coalescing fast path against
// the per-message seed behaviour (EXPERIMENTS.md E11): 128 concurrent
// callers ping-pong across a reliable 2-node cluster, so the coalescer
// can pack a full caller window into each FBatch frame. Run with
// -benchmem to see the allocation economy of the pooled writers.
func BenchmarkE11Batching(b *testing.B) {
	server := `def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p]) in export new p Serve[p]`
	const callers = 128
	for _, cse := range []struct {
		name  string
		batch node.BatchConfig
	}{
		{"unbatched", node.BatchConfig{Disable: true}},
		{"batched", node.BatchConfig{}},
	} {
		for _, link := range []string{"fastether", "wan"} {
			b.Run(cse.name+"/"+link, func(b *testing.B) {
				perCaller := b.N/callers + 1
				b.ResetTimer()
				runWorkload(b, core.ClusterConfig{
					Nodes:       2,
					Link:        mustLink(link),
					Reliability: &transport.ReliableConfig{},
					Batch:       cse.batch,
				}, []benchProgram{
					{node: 0, site: "server", src: server},
					{node: 1, site: "client", src: pingClient(callers, perCaller)},
				}, nil)
				// Each call is one request plus one reply envelope.
				b.ReportMetric(float64(2*callers*perCaller)/b.Elapsed().Seconds(), "msgs/s")
			})
		}
	}
}

// BenchmarkE16Scaling reports the goroutine-per-site runtime's
// multi-core scaling (EXPERIMENTS.md E16): a many-site ping-pong
// workload — 8 independent server/client site pairs across 2 nodes —
// swept over GOMAXPROCS. On a machine with enough cores, msgs/s should
// grow with P; msgs/s at P beyond the physical core count measures
// scheduling overhead instead.
func BenchmarkE16Scaling(b *testing.B) {
	server := `def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p]) in export new p Serve[p]`
	const sites = 8
	const callers = 8
	client := func(srv string, c int) string {
		parts := make([]string, callers)
		for i := range parts {
			parts[i] = fmt.Sprintf("Caller[%d]", c)
		}
		return "import p from " + srv + " in\n" +
			"def Caller(n) = if n == 0 then inaction else let y = p![n] in Caller[n - 1]\nin " +
			strings.Join(parts, " | ")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("gomaxprocs=%d", p), func(b *testing.B) {
			runtime.GOMAXPROCS(p)
			defer runtime.GOMAXPROCS(prev)
			perCaller := b.N/(sites*callers) + 1
			progs := make([]benchProgram, 0, 2*sites)
			for i := 0; i < sites; i++ {
				progs = append(progs, benchProgram{node: 0, site: fmt.Sprintf("server%d", i), src: server})
			}
			for i := 0; i < sites; i++ {
				progs = append(progs, benchProgram{
					node: 1,
					site: fmt.Sprintf("client%d", i),
					src:  client(fmt.Sprintf("server%d", i), perCaller),
				})
			}
			b.ResetTimer()
			runWorkload(b, core.ClusterConfig{
				Nodes:       2,
				Link:        mustLink("fastether"),
				Reliability: &transport.ReliableConfig{},
			}, progs, nil)
			// Each call is one request plus one reply envelope.
			b.ReportMetric(float64(2*sites*callers*perCaller)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// BenchmarkE17NameService reports the sharded name service's two hot
// paths (EXPERIMENTS.md E17): registrations routed by consistent hash
// onto per-member lease tables, and skewed lookups absorbed by a
// client lease cache in front of the ring.
func BenchmarkE17NameService(b *testing.B) {
	ctx := context.Background()
	members := []uint32{1, 2, 3, 4}
	b.Run("register", func(b *testing.B) {
		shard := nameservice.NewSharded(nameservice.ShardedConfig{Members: members})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := shard.RegisterSite(ctx, fmt.Sprintf("site-%d", i), uint32(i), 100, 1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	})
	b.Run("cached-lookup", func(b *testing.B) {
		const hot = 1024
		shard := nameservice.NewSharded(nameservice.ShardedConfig{Members: members})
		cache := nameservice.NewCache(shard, nameservice.CacheConfig{TTL: time.Hour})
		for i := 0; i < hot; i++ {
			site := fmt.Sprintf("site-%d", i)
			if err := shard.RegisterSite(ctx, site, uint32(i), 100, 1); err != nil {
				b.Fatal(err)
			}
			if err := shard.RegisterName(ctx, site, "n", uint32(i)+1, ""); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := cache.LookupName(ctx, fmt.Sprintf("site-%d", i%hot), "n"); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	})
}

// BenchmarkAblationPollInterval sweeps the site scheduler's
// incoming-queue poll interval (the "read periodically" knob of paper
// §5): small values react to the network quickly but pay polling
// overhead; large values batch local work. The workload is the E2
// cross-site ping-pong, which is maximally sensitive to the knob.
func BenchmarkAblationPollInterval(b *testing.B) {
	server := `def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p]) in export new p Serve[p]`
	for _, k := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("poll=%d", k), func(b *testing.B) {
			client := fmt.Sprintf(`
import p from server in
def Call(n) = if n == 0 then inaction else let y = p![n] in Call[n - 1]
in Call[%d]`, b.N)
			runWorkload(b, core.ClusterConfig{Nodes: 1}, []benchProgram{
				{node: 0, site: "server", src: server},
				{node: 0, site: "client", src: client},
			}, map[string][]node.SiteOption{
				"server": {node.WithPollInterval(k)},
				"client": {node.WithPollInterval(k)},
			})
		})
	}
}
