package sim

import (
	"sort"
	"testing"
)

// TestEventHeapMatchesSortedReference drives the typed heap through random
// push, remove, re-key (fix) and pop operations and checks every pop
// against the minimum of a plain slice holding the same events.
func TestEventHeapMatchesSortedReference(t *testing.T) {
	rng := NewRNG(7)
	var h eventHeap
	var live []*Event
	seq := uint64(0)
	key := func(ev *Event) {
		seq++
		ev.at = Time(rng.Intn(50)) // narrow range: many equal deadlines
		ev.seq = seq
	}
	for op := 0; op < 20000; op++ {
		switch k := rng.Intn(8); {
		case k < 3 || len(live) == 0:
			ev := &Event{idx: -1}
			key(ev)
			h.push(ev)
			live = append(live, ev)
		case k == 3:
			i := rng.Intn(len(live))
			h.remove(live[i].idx)
			if live[i].idx != -1 {
				t.Fatalf("removed event still carries idx %d", live[i].idx)
			}
			live = append(live[:i], live[i+1:]...)
		case k == 4:
			ev := live[rng.Intn(len(live))]
			key(ev)
			h.fix(ev.idx, ev)
		default:
			sort.Slice(live, func(i, j int) bool { return before(live[i], live[j]) })
			if got := h.pop(); got != live[0] {
				t.Fatalf("op %d: popped (%v, %d), minimum is (%v, %d)",
					op, got.at, got.seq, live[0].at, live[0].seq)
			}
			live = live[1:]
		}
		if len(h) != len(live) {
			t.Fatalf("op %d: heap holds %d events, reference %d", op, len(h), len(live))
		}
	}
	for i, ev := range h {
		if ev.idx != i {
			t.Fatalf("heap[%d] carries idx %d", i, ev.idx)
		}
		if i > 0 && before(ev, h[(i-1)/heapArity]) {
			t.Fatalf("heap order violated at %d", i)
		}
	}
}
