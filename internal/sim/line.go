package sim

// Line is a delay line: a FIFO of deliveries whose deadlines never
// decrease, dispatched to one Handler. Only its earliest entry occupies
// the engine's heap, so a link with thousands of packets in propagation
// costs one heap entry instead of thousands. Each entry keeps the (at,
// seq) key it would have drawn from ScheduleHandlerAt, so dispatch order,
// Executed() and every result are exactly those of scheduling each entry
// as its own event.
//
// Like Timer, a Line embeds its heap entry and must not be copied after
// Init.
type Line struct {
	ev   Event
	h    Handler
	ring []lineEntry // power-of-two capacity
	head int
	n    int
}

type lineEntry struct {
	at  Time
	seq uint64
	arg any
}

// Init binds the line to an engine and the handler its entries dispatch
// to. Init must be called exactly once, before any PushAt.
func (l *Line) Init(eng *Engine, h Handler) {
	l.ev = Event{eng: eng, idx: -1}
	l.ev.line = l
	l.h = h
}

// PushAt queues h.OnEvent(arg) at absolute time at (clamped to now),
// drawing the engine's sequence number exactly as ScheduleHandlerAt does.
// It accepts the entry only when at is not earlier than the line's last
// entry, and otherwise returns false without drawing a sequence number:
// the caller then schedules the out-of-order delivery with
// ScheduleHandlerAt, which keeps the same global order.
func (l *Line) PushAt(at Time, arg any) bool {
	eng := l.ev.eng
	if at < eng.now {
		at = eng.now
	}
	if l.n > 0 && at < l.ring[(l.head+l.n-1)&(len(l.ring)-1)].at {
		return false
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	eng.seq++
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = lineEntry{at: at, seq: eng.seq, arg: arg}
	l.n++
	if l.n == 1 {
		l.ev.at = at
		l.ev.seq = eng.seq
		eng.queue.push(&l.ev)
	}
	return true
}

// Len returns how many entries the line holds.
func (l *Line) Len() int { return l.n }

// advance removes the head entry, which the run loop is about to
// dispatch, and re-keys the line's heap entry to the next one in place.
// The next entry's key is greater than the removed one's, so a sift-down
// restores the heap; an emptied line leaves the heap.
func (l *Line) advance() any {
	eng := l.ev.eng
	e := &l.ring[l.head]
	arg := e.arg
	e.arg = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	if l.n == 0 {
		eng.queue.remove(l.ev.idx)
		return arg
	}
	nx := &l.ring[l.head]
	l.ev.at = nx.at
	l.ev.seq = nx.seq
	eng.queue.down(l.ev.idx, &l.ev)
	return arg
}

func (l *Line) grow() {
	ring := make([]lineEntry, max(16, 2*len(l.ring)))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring = ring
	l.head = 0
}
