package vm_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/compiler"
	"repro/internal/syntax"
	"repro/internal/vm"
)

// The VM layer's benchmarks. Each reports allocs/op; allocation counts
// are deterministic on a pinned toolchain, so TestFibJobAllocs gates
// the same kernel as a test.

// fibDef is E3's fib probe and the local workload's job: fib(11) runs
// 866 threads and about 7.9k instructions.
const fibDef = `def Fib(n, r) = if n < 2 then r![n]
                else new a new b (Fib[n - 1, a] | Fib[n - 2, b] |
                     a?(x) = b?(y) = r![x + y])`

const fibK = 11

// maxFibJobAllocs bounds one bare fib(11) job on a fresh machine. The
// thread hot path allocates nothing; what remains is first use of
// frames the free list does not hold yet, the channels' queue arrays
// and growth of the machine's own structures.
const maxFibJobAllocs = 1000

// linkSource compiles src and links it into a fresh program area.
func linkSource(tb testing.TB, src string) (*vm.Program, int) {
	tb.Helper()
	p, err := syntax.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	unit, err := compiler.Compile(p, "bench")
	if err != nil {
		tb.Fatal(err)
	}
	prog := vm.NewProgram()
	linked, err := prog.Link(unit, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return prog, linked.Entry
}

// runFresh runs the program's entry to quiescence on a new machine.
func runFresh(tb testing.TB, prog *vm.Program, entry int) *vm.Machine {
	m := vm.NewMachine(prog, io.Discard, nil)
	m.Spawn(entry, nil)
	if err := m.RunToQuiescence(); err != nil {
		tb.Fatal(err)
	}
	return m
}

func fibJobSource() string {
	return fmt.Sprintf("%s\nin new r (Fib[%d, r] | r?(v) = inaction)", fibDef, fibK)
}

// BenchmarkFibJob: one fib(11) job on a fresh machine per op.
func BenchmarkFibJob(b *testing.B) {
	prog, entry := linkSource(b, fibJobSource())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runFresh(b, prog, entry)
	}
}

// BenchmarkFibJobsLongLived: 400 fib(11) jobs in sequence on one
// machine per op, the shape of a local-workload worker site. The heap
// and the free lists stay warm across jobs.
func BenchmarkFibJobsLongLived(b *testing.B) {
	const jobs = 400
	prog, entry := linkSource(b, fmt.Sprintf(`%s
and Loop(j) = if j == %d then inaction
              else new r (Fib[%d, r] | r?(v) = Loop[j + 1])
in Loop[0]`, fibDef, jobs, fibK))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runFresh(b, prog, entry)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
}

// BenchmarkPingPong: one local request/reply round trip per op between
// a server object and a calling loop on one machine.
func BenchmarkPingPong(b *testing.B) {
	prog, entry := linkSource(b, fmt.Sprintf(`
def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p])
and Call(p, n) = if n == 0 then inaction else let y = p![n] in Call[p, n - 1]
in new p (Serve[p] | Call[p, %d])`, b.N))
	m := vm.NewMachine(prog, io.Discard, nil)
	m.Spawn(entry, nil)
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.RunToQuiescence(); err != nil {
		b.Fatal(err)
	}
}

// TestFibJobAllocs is the VM layer's allocation gate: a bare fib(11)
// job on a fresh machine stays under maxFibJobAllocs.
func TestFibJobAllocs(t *testing.T) {
	prog, entry := linkSource(t, fibJobSource())
	allocs := testing.AllocsPerRun(20, func() { runFresh(t, prog, entry) })
	t.Logf("fib(%d) job: %.0f allocs", fibK, allocs)
	if allocs > maxFibJobAllocs {
		t.Fatalf("fib(%d) job made %.0f allocations, want <= %d", fibK, allocs, maxFibJobAllocs)
	}
}
