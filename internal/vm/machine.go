package vm

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/asm"
)

// External receives every interaction that leaves the machine: remote
// sends (rule SHIPM), object migrations (rule SHIPO), remote
// instantiations (rule FETCH) and export registrations. Package site
// implements it; a nil External restricts the machine to purely local
// programs (exports are then recorded in a local registry so tests and
// the single-site tyco tool still work).
//
// The args and frame slices passed to RemoteSend, RemoteObj and
// RemoteInst are views of the machine's operand stack: they are valid
// only during the call, and an implementation that keeps the values
// must copy them.
type External interface {
	// RemoteSend ships a message to a remote channel.
	RemoteSend(ref NetRef, label string, args []Value) error
	// RemoteObj migrates an object (its method-table code plus
	// captured frame) to the remote channel's site.
	RemoteObj(ref NetRef, table int, frame []Value) error
	// RemoteInst requests the byte-code of a remote class and
	// instantiates it locally once linked.
	RemoteInst(class NetClass, args []Value) error
	// ExportName registers a local channel with the name service.
	ExportName(name string, v Value) error
	// ExportClass registers a class closure for remote fetching.
	ExportClass(name string, v Value) error
}

// Stats counts machine activity. The counters map onto the paper's
// performance story: Reductions and Instructions give the
// instructions-per-thread granularity claim; ContextSwitches counts
// thread activations used to hide communication latency.
type Stats struct {
	Instructions    uint64
	Threads         uint64 // threads spawned
	ContextSwitches uint64 // threads activated from the run-queue
	Communications  uint64 // local COMM reductions
	Instantiations  uint64 // local INST reductions
	MessagesQueued  uint64
	ObjectsQueued   uint64
	ChannelsMade    uint64
	RemoteSends     uint64
	RemoteObjs      uint64
	RemoteInsts     uint64
	Parks           uint64 // threads parked on unresolved imports
}

// channel is a heap entry: queued messages or queued objects (never
// both non-empty).
type channel struct {
	msgs []qMsg
	objs []qObj
}

type qMsg struct {
	label int
	args  []Value
	// trace is the mobility trace of the send that queued the message
	// (telemetry fabric; 0 = untraced). Traces are runtime-only causal
	// context: snapshots do not persist them, so recovered threads
	// start fresh trace roots.
	trace uint64
}

type qObj struct {
	table int
	frame []Value
	trace uint64
}

// Thread is a runnable activation: a block, a program counter and the
// frame of locals. A running thread keeps its operands on the
// machine's shared operand stack; stack holds them only while the
// thread is parked (or restored from a snapshot), and is moved back
// onto the operand stack when it runs again.
type Thread struct {
	block int32
	pc    int32
	frame []Value
	stack []Value
	// trace is the mobility trace the thread runs under: inherited
	// from the delivery or reduction that spawned it, and carried into
	// every remote operation the thread performs.
	trace uint64
}

// Error is a machine runtime error with code location.
type Error struct {
	Block int
	PC    int
	Name  string
	Msg   string
}

func (e *Error) Error() string {
	return fmt.Sprintf("vm error in %s (block %d, pc %d): %s", e.Name, e.Block, e.PC, e.Msg)
}

// Frame free-list bounds: frames of up to maxPooledFrame slots are
// recycled, at most framePoolCap of each size.
const (
	maxPooledFrame = 16
	framePoolCap   = 128
)

// Machine is one TyCO virtual machine instance (one site's engine).
// It is single-owner by construction: exactly one goroutine — the
// site's own run loop (site.Run) — may call Step/RunSlice/Requeue, so
// the Machine itself needs no locks.
//
// Threads cost no allocation of their own. Step pops a thread into
// th and runs it there; threads run to completion, so one operand
// stack serves them all; the run-queue is a ring; and the frame of a
// thread that halts goes on a free list that later threads, and the
// copies queued messages and objects need, take frames from.
type Machine struct {
	Prog  *Program
	Out   io.Writer
	Ext   External
	Stats Stats

	heap []channel
	// runq is a ring of runnable threads: qlen of them from qhead on.
	// Its length is zero or a power of two.
	runq  []Thread
	qhead int
	qlen  int
	// th is the running thread; stack is the operand stack of
	// whichever thread runs.
	th    Thread
	stack []Value
	// free[n] holds recycled, cleared frames of n slots.
	free [maxPooledFrame + 1][][]Value
	// localExports backs export instructions when Ext is nil.
	localExports map[string]Value

	// InstrPerThread, when non-nil, receives the instruction count of
	// every finished thread (experiment E3's granularity histogram).
	InstrPerThread func(n int)

	// OnPending receives threads that touched a KPending constant
	// (an import whose name-service resolution is still in flight).
	// The owner re-queues them with Requeue once the constant is
	// resolved. A nil OnPending makes pending constants an error.
	OnPending func(t Thread, constIdx int)

	// Trace context (telemetry fabric). ambient is the mobility trace
	// of whatever is executing right now: the running thread's trace
	// while a thread runs, or the delivery's trace while the site
	// applies one. Touched only on the machine's goroutine.
	ambient uint64
}

// NewMachine creates a machine over a program area.
func NewMachine(prog *Program, out io.Writer, ext External) *Machine {
	if out == nil {
		out = io.Discard
	}
	return &Machine{Prog: prog, Out: out, Ext: ext, localExports: map[string]Value{}}
}

// NewChan allocates a fresh channel and returns its heap index.
func (m *Machine) NewChan() int {
	m.heap = append(m.heap, channel{})
	m.Stats.ChannelsMade++
	return len(m.heap) - 1
}

// HeapSize returns the number of allocated channels.
func (m *Machine) HeapSize() int { return len(m.heap) }

// LocalExports returns the registry used when no External is set.
func (m *Machine) LocalExports() map[string]Value { return m.localExports }

// Spawn enqueues a new thread for block with the given frame prefix
// (captures followed by parameters). The thread gets a frame of the
// block's declared size holding a copy of the prefix.
func (m *Machine) Spawn(block int, prefix []Value) {
	frame := m.newFrame(m.Prog.Blocks[block].FrameSize())
	copy(frame, prefix)
	m.spawn(block, frame)
}

// spawn enqueues a new thread for block over frame, which the thread
// then owns.
func (m *Machine) spawn(block int, frame []Value) {
	m.Stats.Threads++
	m.enqueue(Thread{block: int32(block), frame: frame, trace: m.ambient})
}

// enqueue appends t to the run-queue ring, doubling the ring when
// full.
func (m *Machine) enqueue(t Thread) {
	if m.qlen == len(m.runq) {
		ring := make([]Thread, max(16, 2*len(m.runq)))
		n := copy(ring, m.runq[m.qhead:])
		copy(ring[n:], m.runq[:m.qhead])
		m.runq, m.qhead = ring, 0
	}
	m.runq[(m.qhead+m.qlen)&(len(m.runq)-1)] = t
	m.qlen++
}

// newFrame returns a zeroed frame of n slots, recycled when the free
// list has one.
func (m *Machine) newFrame(n int) []Value {
	if n == 0 {
		return nil
	}
	if n <= maxPooledFrame {
		if l := m.free[n]; len(l) > 0 {
			f := l[len(l)-1]
			l[len(l)-1] = nil
			m.free[n] = l[:len(l)-1]
			return f
		}
	}
	return make([]Value, n)
}

// freeFrame clears f and keeps it for reuse. The caller must hold the
// only reference to f.
func (m *Machine) freeFrame(f []Value) {
	n := len(f)
	if n == 0 || n > maxPooledFrame || len(m.free[n]) == framePoolCap {
		return
	}
	clear(f)
	m.free[n] = append(m.free[n], f)
}

// copyValues returns a machine-owned copy of vs (nil when empty).
func (m *Machine) copyValues(vs []Value) []Value {
	c := m.newFrame(len(vs))
	copy(c, vs)
	return c
}

// Ambient returns the current trace context (0 = untraced).
func (m *Machine) Ambient() uint64 { return m.ambient }

// SetAmbient installs the trace context for externally-driven work:
// the site sets it to the incoming delivery's trace before applying
// and clears it afterwards, so threads and queue entries created by
// the delivery inherit its trace.
func (m *Machine) SetAmbient(trace uint64) { m.ambient = trace }

// AdoptTrace stamps the running thread (and the ambient context) with
// a trace allocated mid-run — the first remote operation of an
// untraced thread becomes the root of a new trace tree, and the
// thread's later operations join it. Between threads th is idle and
// the next Step overwrites it.
func (m *Machine) AdoptTrace(trace uint64) {
	m.th.trace = trace
	m.ambient = trace
}

// Requeue returns a parked thread, with the operand stack it parked
// with, to the run-queue.
func (m *Machine) Requeue(t Thread) { m.enqueue(t) }

// QueueLen reports the number of runnable threads.
func (m *Machine) QueueLen() int { return m.qlen }

// Idle reports whether the machine has no runnable work.
func (m *Machine) Idle() bool { return m.qlen == 0 }

// Step pops one thread and runs it to completion (thread bodies are a
// few tens of instructions — the paper's granularity). It reports
// whether any work was done.
func (m *Machine) Step() (bool, error) {
	if m.qlen == 0 {
		return false, nil
	}
	m.th = m.runq[m.qhead]
	m.runq[m.qhead] = Thread{}
	m.qhead = (m.qhead + 1) & (len(m.runq) - 1)
	m.qlen--
	m.Stats.ContextSwitches++
	m.ambient = m.th.trace
	m.stack = append(m.stack[:0], m.th.stack...)
	m.th.stack = nil
	err := m.run()
	m.th = Thread{}
	m.ambient = 0
	return true, err
}

// RunSlice executes up to n threads; it returns the number executed.
func (m *Machine) RunSlice(n int) (int, error) {
	done := 0
	for done < n {
		ok, err := m.Step()
		if err != nil {
			return done, err
		}
		if !ok {
			return done, nil
		}
		done++
	}
	return done, nil
}

// RunToQuiescence drains the run-queue completely.
func (m *Machine) RunToQuiescence() error {
	for {
		ok, err := m.Step()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// DeliverMsg injects a message arriving from the network (or from a
// local producer) at a local channel: the second, rendez-vous half of
// a remote communication.
func (m *Machine) DeliverMsg(ch int, label int, args []Value) error {
	return m.trmsg(Chan(ch), label, args, nil)
}

// DeliverObj injects a migrated object (already linked: table indexes
// the program area) at a local channel.
func (m *Machine) DeliverObj(ch int, table int, frame []Value) error {
	return m.trobj(Chan(ch), table, frame, nil)
}

// MakeGroupFrame builds the shared frame of a def group: captured
// values followed by the class closures themselves (used by MkDef and
// by the site when reconstructing fetched classes).
func (m *Machine) MakeGroupFrame(group int, captured []Value) []Value {
	g := &m.Prog.Groups[group]
	frame := make([]Value, g.NFree+len(g.Classes))
	copy(frame, captured)
	for j := range g.Classes {
		frame[g.NFree+j] = Class(group, j, frame)
	}
	return frame
}

// Instantiate runs a class closure with the given arguments.
func (m *Machine) Instantiate(class Value, args []Value) error {
	switch class.Kind {
	case KClass:
		gi, ci := class.ClassID()
		g := &m.Prog.Groups[gi]
		info := g.Classes[ci]
		if len(args) != info.NParams {
			return fmt.Errorf("class %s expects %d arguments, got %d", info.Name, info.NParams, len(args))
		}
		b := &m.Prog.Blocks[info.Block]
		frame := m.newFrame(b.FrameSize())
		copy(frame, class.Frame)
		copy(frame[b.NFree:], args)
		m.Stats.Instantiations++
		m.spawn(info.Block, frame)
		return nil
	case KNetClass:
		m.Stats.RemoteInsts++
		if m.Ext == nil {
			return fmt.Errorf("remote class %s with no network attached", class.AsNetClass())
		}
		return m.Ext.RemoteInst(class.AsNetClass(), args)
	default:
		return fmt.Errorf("cannot instantiate %s value %s", class.Kind, class)
	}
}

// run executes the thread in th until Halt, on the operand stack.
func (m *Machine) run() error {
	t := &m.th
	prog := m.Prog
	blk := &prog.Blocks[t.block]
	code := blk.Code
	n0 := m.Stats.Instructions
	fail := func(format string, args ...any) error {
		return &Error{Block: int(t.block), PC: int(t.pc) - 1, Name: blk.Name, Msg: fmt.Sprintf(format, args...)}
	}
	push := func(v Value) { m.stack = append(m.stack, v) }
	pop := func() Value {
		v := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		return v
	}
	// popN returns the top n operands as a view of the operand stack:
	// valid until the next push, so whoever keeps them copies them.
	popN := func(n int) []Value {
		if n == 0 {
			return nil
		}
		k := len(m.stack) - n
		vals := m.stack[k:len(m.stack):len(m.stack)]
		m.stack = m.stack[:k]
		return vals
	}
	// halt ends the thread normally; nothing else references its
	// frame, so the frame is recycled.
	halt := func() {
		if m.InstrPerThread != nil {
			m.InstrPerThread(int(m.Stats.Instructions - n0))
		}
		m.freeFrame(t.frame)
	}
	for {
		if int(t.pc) >= len(code) {
			break // fell off the block: same as Halt
		}
		in := code[t.pc]
		t.pc++
		m.Stats.Instructions++
		switch in.Op {
		case asm.Nop:
		case asm.Halt:
			halt()
			return nil
		case asm.LdLoc:
			push(t.frame[in.A])
		case asm.StLoc:
			t.frame[in.A] = pop()
		case asm.Drop:
			pop()
		case asm.LdI:
			push(Int(int64(in.A)))
		case asm.LdIC:
			push(Int(prog.Ints[in.A]))
		case asm.LdF:
			push(Float(prog.Floats[in.A]))
		case asm.LdS:
			push(Str(prog.Strings[in.A]))
		case asm.LdB:
			push(Bool(in.A != 0))
		case asm.LdK:
			v := prog.Consts[in.A]
			if v.Kind == KPending {
				if m.OnPending == nil {
					return fail("unresolved import constant %d", in.A)
				}
				// Rewind so the thread re-executes LdK when it is
				// re-queued after resolution, then park it with a
				// copy of its operands.
				t.pc--
				m.Stats.Parks++
				parked := *t
				parked.stack = append([]Value(nil), m.stack...)
				m.OnPending(parked, int(in.A))
				return nil
			}
			push(v)
		case asm.NewC:
			push(Chan(m.NewChan()))
		case asm.Jmp:
			t.pc = in.A
		case asm.JmpF:
			if !pop().Truth() {
				t.pc = in.A
			}
		case asm.Send:
			args := popN(int(in.B))
			target := pop()
			if err := m.trmsg(target, int(in.A), args, fail); err != nil {
				return err
			}
		case asm.Obj:
			frame := popN(int(in.B))
			target := pop()
			if err := m.trobj(target, int(in.A), frame, fail); err != nil {
				return err
			}
		case asm.MkDef:
			captured := popN(int(in.B))
			frame := m.MakeGroupFrame(int(in.A), captured)
			g := &prog.Groups[in.A]
			for j := range g.Classes {
				push(frame[g.NFree+j])
			}
		case asm.InstV:
			args := popN(int(in.A))
			class := pop()
			if err := m.Instantiate(class, args); err != nil {
				return fail("%s", err)
			}
		case asm.Spawn:
			m.Spawn(int(in.A), popN(int(in.B)))
		case asm.Print, asm.Println:
			args := popN(int(in.A))
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = a.String()
			}
			if in.Op == asm.Println {
				fmt.Fprintln(m.Out, strings.Join(parts, " "))
			} else {
				fmt.Fprint(m.Out, strings.Join(parts, " "))
			}
		case asm.ExpName:
			v := pop()
			name := prog.Strings[in.A]
			if m.Ext != nil {
				if err := m.Ext.ExportName(name, v); err != nil {
					return fail("export %s: %s", name, err)
				}
			} else {
				m.localExports[name] = v
			}
		case asm.ExpClass:
			v := t.frame[in.B]
			name := prog.Strings[in.A]
			if m.Ext != nil {
				if err := m.Ext.ExportClass(name, v); err != nil {
					return fail("export class %s: %s", name, err)
				}
			} else {
				m.localExports[name] = v
			}
		case asm.LdImp:
			return fail("unresolved import at runtime (unit not linked)")
		case asm.Add, asm.Sub, asm.Mul, asm.Div, asm.Mod,
			asm.And, asm.Or, asm.CmpEq, asm.CmpNe,
			asm.CmpLt, asm.CmpLe, asm.CmpGt, asm.CmpGe:
			r := pop()
			l := pop()
			v, err := binop(in.Op, l, r)
			if err != nil {
				return fail("%s", err)
			}
			push(v)
		case asm.Neg:
			v := pop()
			switch v.Kind {
			case KInt:
				push(Int(-v.I))
			case KFloat:
				push(Float(-v.F))
			default:
				return fail("neg: not a number: %s", v)
			}
		case asm.Not:
			v := pop()
			if v.Kind != KBool {
				return fail("not: not a boolean: %s", v)
			}
			push(Bool(!v.Truth()))
		default:
			return fail("invalid opcode %s", in.Op)
		}
	}
	halt()
	return nil
}

// trmsg implements the paper's re-engineered trmsg instruction: local
// reduction or queueing for a heap reference; shipping for a network
// reference. args may be a view of the operand stack: queueing copies
// it, and a consumed queue entry is cleared from its queue so the heap
// does not keep it reachable.
func (m *Machine) trmsg(target Value, label int, args []Value, fail func(string, ...any) error) error {
	wrap := func(format string, a ...any) error {
		if fail != nil {
			return fail(format, a...)
		}
		return fmt.Errorf(format, a...)
	}
	switch target.Kind {
	case KChan:
		ch := &m.heap[target.I]
		if len(ch.objs) > 0 {
			obj := ch.objs[0]
			ch.objs[0] = qObj{}
			if ch.objs = ch.objs[1:]; len(ch.objs) == 0 {
				ch.objs = nil
			}
			// The message is the communication's cause: its trace wins;
			// an untraced message joins the waiting object's trace.
			trace := m.ambient
			if trace == 0 {
				trace = obj.trace
			}
			if err := m.reduce(obj, label, args, trace, wrap); err != nil {
				return err
			}
			m.freeFrame(obj.frame)
			return nil
		}
		ch.msgs = append(ch.msgs, qMsg{label: label, args: m.copyValues(args), trace: m.ambient})
		m.Stats.MessagesQueued++
		return nil
	case KNet:
		m.Stats.RemoteSends++
		if m.Ext == nil {
			return wrap("message to %s with no network attached", target.Net)
		}
		return m.Ext.RemoteSend(target.Net, m.Prog.Labels[label], args)
	default:
		return wrap("message target is not a channel: %s", target)
	}
}

// trobj implements the paper's re-engineered trobj instruction.
func (m *Machine) trobj(target Value, table int, frame []Value, fail func(string, ...any) error) error {
	wrap := func(format string, a ...any) error {
		if fail != nil {
			return fail(format, a...)
		}
		return fmt.Errorf(format, a...)
	}
	switch target.Kind {
	case KChan:
		ch := &m.heap[target.I]
		if len(ch.msgs) > 0 {
			msg := ch.msgs[0]
			ch.msgs[0] = qMsg{}
			if ch.msgs = ch.msgs[1:]; len(ch.msgs) == 0 {
				ch.msgs = nil
			}
			trace := msg.trace
			if trace == 0 {
				trace = m.ambient
			}
			if err := m.reduce(qObj{table: table, frame: frame}, msg.label, msg.args, trace, wrap); err != nil {
				return err
			}
			m.freeFrame(msg.args)
			return nil
		}
		ch.objs = append(ch.objs, qObj{table: table, frame: m.copyValues(frame), trace: m.ambient})
		m.Stats.ObjectsQueued++
		return nil
	case KNet:
		m.Stats.RemoteObjs++
		if m.Ext == nil {
			return wrap("object migration to %s with no network attached", target.Net)
		}
		return m.Ext.RemoteObj(target.Net, table, frame)
	default:
		return wrap("object target is not a channel: %s", target)
	}
}

// reduce performs one COMMUNICATION reduction: select the method and
// enqueue its body. The body thread runs under trace — the causal
// context of the message half of the rendez-vous.
func (m *Machine) reduce(obj qObj, label int, args []Value, trace uint64, wrap func(string, ...any) error) error {
	tbl := &m.Prog.Tables[obj.table]
	block, ok := tbl.Lookup(label)
	if !ok {
		return wrap("object does not understand label %q", m.Prog.Labels[label])
	}
	b := &m.Prog.Blocks[block]
	if len(args) != b.NParams {
		return wrap("method %q expects %d arguments, got %d", m.Prog.Labels[label], b.NParams, len(args))
	}
	frame := m.newFrame(b.FrameSize())
	copy(frame, obj.frame)
	copy(frame[b.NFree:], args)
	m.Stats.Communications++
	saved := m.ambient
	m.ambient = trace
	m.spawn(block, frame)
	m.ambient = saved
	return nil
}

// PendingAt reports the queue lengths at a channel (testing aid).
func (m *Machine) PendingAt(ch int) (msgs, objs int) {
	c := &m.heap[ch]
	return len(c.msgs), len(c.objs)
}

func binop(op asm.Opcode, l, r Value) (Value, error) {
	bad := func() (Value, error) {
		return Value{}, fmt.Errorf("operator %s not applicable to %s and %s", op, l, r)
	}
	switch op {
	case asm.Add:
		switch {
		case l.Kind == KInt && r.Kind == KInt:
			return Int(l.I + r.I), nil
		case l.Kind == KFloat && r.Kind == KFloat:
			return Float(l.F + r.F), nil
		case l.Kind == KStr && r.Kind == KStr:
			return Str(l.S + r.S), nil
		}
		return bad()
	case asm.Sub, asm.Mul, asm.Div, asm.Mod:
		switch {
		case l.Kind == KInt && r.Kind == KInt:
			switch op {
			case asm.Sub:
				return Int(l.I - r.I), nil
			case asm.Mul:
				return Int(l.I * r.I), nil
			case asm.Div:
				if r.I == 0 {
					return Value{}, fmt.Errorf("integer division by zero")
				}
				return Int(l.I / r.I), nil
			default:
				if r.I == 0 {
					return Value{}, fmt.Errorf("integer modulo by zero")
				}
				return Int(l.I % r.I), nil
			}
		case l.Kind == KFloat && r.Kind == KFloat && op != asm.Mod:
			switch op {
			case asm.Sub:
				return Float(l.F - r.F), nil
			case asm.Mul:
				return Float(l.F * r.F), nil
			default:
				return Float(l.F / r.F), nil
			}
		}
		return bad()
	case asm.And, asm.Or:
		if l.Kind != KBool || r.Kind != KBool {
			return bad()
		}
		if op == asm.And {
			return Bool(l.Truth() && r.Truth()), nil
		}
		return Bool(l.Truth() || r.Truth()), nil
	case asm.CmpEq:
		return Bool(l.Equal(r)), nil
	case asm.CmpNe:
		return Bool(!l.Equal(r)), nil
	case asm.CmpLt, asm.CmpLe, asm.CmpGt, asm.CmpGe:
		var c int
		switch {
		case l.Kind == KInt && r.Kind == KInt:
			switch {
			case l.I < r.I:
				c = -1
			case l.I > r.I:
				c = 1
			}
		case l.Kind == KFloat && r.Kind == KFloat:
			switch {
			case l.F < r.F:
				c = -1
			case l.F > r.F:
				c = 1
			}
		case l.Kind == KStr && r.Kind == KStr:
			c = strings.Compare(l.S, r.S)
		default:
			return bad()
		}
		switch op {
		case asm.CmpLt:
			return Bool(c < 0), nil
		case asm.CmpLe:
			return Bool(c <= 0), nil
		case asm.CmpGt:
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	}
	return bad()
}
