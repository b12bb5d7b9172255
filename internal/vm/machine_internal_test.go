package vm

import (
	"testing"

	"repro/internal/asm"
)

// TestConsumedQueueEntriesUnreachable: the heap is append-only, so a
// channel outlives its traffic. A consumed queue entry must not stay
// reachable through the queue's backing array, or every channel pins
// the last message (and its arguments) it ever carried.
func TestConsumedQueueEntriesUnreachable(t *testing.T) {
	prog := NewProgram()
	// One method table: label "go" runs an empty block with one
	// parameter.
	prog.Blocks = append(prog.Blocks, asm.Block{Name: "go", NParams: 1, Code: []asm.Instr{{Op: asm.Halt}}})
	label := prog.LabelIndex("go")
	prog.Tables = append(prog.Tables, asm.MethodTable{Labels: []int{label}, Blocks: []int{len(prog.Blocks) - 1}})
	table := len(prog.Tables) - 1
	m := NewMachine(prog, nil, nil)
	payload := Str("payload")

	t.Run("messages", func(t *testing.T) {
		ch := m.NewChan()
		for i := 0; i < 2; i++ {
			if err := m.DeliverMsg(ch, label, []Value{payload}); err != nil {
				t.Fatal(err)
			}
		}
		backing := m.heap[ch].msgs[:2]
		if err := m.DeliverObj(ch, table, nil); err != nil {
			t.Fatal(err)
		}
		if backing[0].args != nil {
			t.Fatalf("consumed message still referenced by the queue: %v", backing[0].args)
		}
		if err := m.DeliverObj(ch, table, nil); err != nil {
			t.Fatal(err)
		}
		if q := m.heap[ch].msgs; q != nil || backing[1].args != nil {
			t.Fatalf("emptied message queue keeps %d slots, last args %v", cap(q), backing[1].args)
		}
	})
	t.Run("objects", func(t *testing.T) {
		ch := m.NewChan()
		for i := 0; i < 2; i++ {
			if err := m.DeliverObj(ch, table, []Value{payload}); err != nil {
				t.Fatal(err)
			}
		}
		backing := m.heap[ch].objs[:2]
		if err := m.DeliverMsg(ch, label, []Value{payload}); err != nil {
			t.Fatal(err)
		}
		if backing[0].frame != nil {
			t.Fatalf("consumed object still referenced by the queue: %v", backing[0].frame)
		}
		if err := m.DeliverMsg(ch, label, []Value{payload}); err != nil {
			t.Fatal(err)
		}
		if q := m.heap[ch].objs; q != nil || backing[1].frame != nil {
			t.Fatalf("emptied object queue keeps %d slots, last frame %v", cap(q), backing[1].frame)
		}
	})
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
}
