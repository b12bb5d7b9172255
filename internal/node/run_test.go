package node_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// oneNode builds a single node on an in-memory fabric, with cfg free
// to adjust the node configuration before construction.
func oneNode(t *testing.T, cfg func(*node.Config)) (*node.Node, func()) {
	t.Helper()
	ns := nameservice.NewCentral()
	fabric := transport.NewFabric(transport.Ideal)
	tr, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	c := node.Config{ID: 1, NS: ns, Transport: tr}
	if cfg != nil {
		cfg(&c)
	}
	n := node.New(c)
	return n, func() {
		n.Stop()
		fabric.Close()
	}
}

// Eight concurrent sites on one node must all run to completion.
func TestSchedulerRunsSitesAndReportsStats(t *testing.T) {
	n, stop := oneNode(t, nil)
	defer stop()
	const sites = 8
	outs := make([]*testutil.Buf, sites)
	for i := range outs {
		outs[i] = &testutil.Buf{}
		submit(t, n, fmt.Sprintf("s%d", i), `println("done")`, outs[i])
	}
	for _, out := range outs {
		out := out
		waitFor(t, func() bool { return strings.Contains(out.String(), "done") })
	}
}

// Local cross-site traffic goes through the receiver's inbox: the
// sender's goroutine hands the delivery over and never runs the
// receiver inline.
func TestSchedulerLocalPingPong(t *testing.T) {
	n, stop := oneNode(t, nil)
	defer stop()
	out := &testutil.Buf{}
	submit(t, n, "server",
		`def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p]) in export new p Serve[p]`,
		&testutil.Buf{})
	submit(t, n, "client", `
import p from server in
def Call(n) = if n == 0 then println("sum done") else let y = p![n] in Call[n - 1]
in Call[50]`, out)
	waitFor(t, func() bool { return strings.Contains(out.String(), "sum done") })
}

// A quiet node must wake on external input: repeatedly let every site
// on both nodes park, then wake them from external goroutines (Spawn
// from the test goroutine, the reply frame from the transport receive
// path). A lost wakeup hangs a round and trips the waitFor deadline.
func TestSchedulerQuietNodeWake(t *testing.T) {
	ns := nameservice.NewCentral()
	fabric := transport.NewFabric(transport.Ideal)
	t1, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := fabric.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	n1 := node.New(node.Config{ID: 1, NS: ns, Transport: t1})
	n2 := node.New(node.Config{ID: 2, NS: ns, Transport: t2})
	defer func() {
		n1.Stop()
		n2.Stop()
		fabric.Close()
	}()
	submit(t, n1, "server",
		`def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p]) in export new p Serve[p]`,
		&testutil.Buf{})
	rounds := 60
	if testing.Short() {
		rounds = 10
	}
	for i := 0; i < rounds; i++ {
		// A pause with no runnable site parks every site on both
		// nodes before the next wake arrives.
		time.Sleep(2 * time.Millisecond)
		out := &testutil.Buf{}
		submit(t, n2, fmt.Sprintf("c%d", i),
			`import p from server in let y = p![1] in println("ok")`, out)
		waitFor(t, func() bool { return strings.Contains(out.String(), "ok") })
	}
}

// A one-byte MaxQueueBytes forces every producer after the first
// through the blocked-on-cap path: each enqueue waits for the flusher
// to drain the peer ring before appending. A client blasting
// pipelined requests must still get every reply — the cap applies
// backpressure without deadlocking or losing envelopes.
func TestBatchRingCapBackpressure(t *testing.T) {
	ns := nameservice.NewCentral()
	fabric := transport.NewFabric(transport.Ideal)
	t1, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := fabric.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	tiny := node.BatchConfig{MaxQueueBytes: 1}
	n1 := node.New(node.Config{ID: 1, NS: ns, Transport: t1, Batch: tiny})
	n2 := node.New(node.Config{ID: 2, NS: ns, Transport: t2, Batch: tiny})
	defer func() {
		n1.Stop()
		n2.Stop()
		fabric.Close()
	}()
	submit(t, n2, "server",
		`def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p]) in export new p Serve[p]`,
		&testutil.Buf{})
	out := &testutil.Buf{}
	submit(t, n1, "client", `
import p from server in
def Collect(done, n) = if n == 0 then println("all replies") else (done?(y) = Collect[done, n - 1])
and Blast(done, n) = if n == 0 then inaction else (new r (p![n, r] | r?(y) = done![y]) | Blast[done, n - 1])
in new done (Collect[done, 100] | Blast[done, 100])`, out)
	waitFor(t, func() bool { return strings.Contains(out.String(), "all replies") })
}
