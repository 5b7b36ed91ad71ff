package sim

// heapArity is the fan-out of the event heap. A 4-ary heap is half as
// deep as a binary one, and its four children share a cache line or two
// of the backing slice, so a sift-down touches fewer lines.
const heapArity = 4

// eventHeap is a typed d-ary min-heap of events keyed by (at, seq), with
// each event's position kept in its idx field. Keys are unique (seq never
// repeats), so the dispatch order is the key order whatever the arity.
type eventHeap []*Event

// before reports whether a's key is smaller than b's.
func before(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// pop removes and returns the minimum; the heap must not be empty.
func (h *eventHeap) pop() *Event {
	top := (*h)[0]
	h.remove(0)
	return top
}

func (h *eventHeap) remove(i int) {
	q := *h
	ev := q[i]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	*h = q[:n]
	if i < n {
		h.fix(i, last)
	}
	ev.idx = -1
}

// fix places ev, whose key may have changed, at index i and restores the
// heap order around it.
func (h *eventHeap) fix(i int, ev *Event) {
	if i > 0 && before(ev, (*h)[(i-1)/heapArity]) {
		h.up(i, ev)
		return
	}
	h.down(i, ev)
}

// up moves ev from the hole at index i toward the root until its parent
// is smaller, shifting the larger parents down into the hole.
func (h *eventHeap) up(i int, ev *Event) {
	q := *h
	for i > 0 {
		p := (i - 1) / heapArity
		parent := q[p]
		if !before(ev, parent) {
			break
		}
		q[i] = parent
		parent.idx = i
		i = p
	}
	q[i] = ev
	ev.idx = i
}

// down moves ev from the hole at index i toward the leaves until no child
// is smaller, shifting the smallest child up into the hole.
func (h *eventHeap) down(i int, ev *Event) {
	q := *h
	n := len(q)
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m, min := c, q[c]
		end := c + heapArity
		if end > n {
			end = n
		}
		for c++; c < end; c++ {
			if before(q[c], min) {
				m, min = c, q[c]
			}
		}
		if !before(min, ev) {
			break
		}
		q[i] = min
		min.idx = i
		i = m
	}
	q[i] = ev
	ev.idx = i
}
