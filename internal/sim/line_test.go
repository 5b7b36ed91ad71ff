package sim

import (
	"testing"
	"time"
)

// stamp is one dispatch in an order-equivalence run: the clock at dispatch
// and the id the schedule gave the event.
type stamp struct {
	at Time
	id int
}

// orderRig drives one randomized schedule on an engine. The mixed rig
// (ref=false) uses every scheduling surface: delay lines (in-order pushes,
// and out-of-order ones that fall back to ScheduleHandlerAt), pooled
// handler events, Timer.Reset/Stop and Schedule(...).Cancel(). The
// reference rig (ref=true) sends the same schedule entirely through
// ScheduleHandlerAt; what the mixed rig cancels, stops or re-arms it marks
// dead instead, and a dead event firing is counted as a tombstone and
// otherwise ignored.
type orderRig struct {
	eng *Engine
	rng *RNG // the schedule's own random stream, identical in both rigs
	ref bool

	lines    [4]Line
	lastAt   [4]Time // latest deadline pushed to each line by the schedule
	timers   [3]Timer
	timerID  [3]int // id of each timer's current arming; 0 = idle
	closures []*Event
	closIDs  []int

	nextID int
	log    []stamp

	alive     map[int]bool // reference rig: scheduled and not yet dead
	tombs     int          // reference rig: dead events that fired
	fallbacks int          // mixed rig: line pushes that took the heap
	linePush  int          // mixed rig: line pushes the line accepted
}

func newOrderRig(ref bool) *orderRig {
	r := &orderRig{eng: NewEngine(1), rng: NewRNG(2024), ref: ref, alive: map[int]bool{}}
	for i := range r.lines {
		r.lines[i].Init(r.eng, r)
	}
	for i := range r.timers {
		r.timers[i].Init(r.eng, timerFire{r}, i)
	}
	return r
}

const orderTick = Time(10 * time.Microsecond) // coarse, so deadlines tie often

func (r *orderRig) id() int {
	r.nextID++
	return r.nextID
}

// refSchedule queues id on the reference rig's heap path.
func (r *orderRig) refSchedule(at Time, id int) {
	r.alive[id] = true
	r.eng.ScheduleHandlerAt(at, r, id)
}

// pushLine offers a delivery to line i: three times in four at or after the
// line's latest deadline (the in-order case), otherwise anywhere in the
// next 40 ticks, which usually lands before the tail and takes the
// fallback.
func (r *orderRig) pushLine(i int) {
	now := r.eng.Now()
	var at Time
	if r.rng.Intn(4) > 0 {
		at = max(now, r.lastAt[i]) + Time(r.rng.Intn(5))*orderTick
	} else {
		at = now + Time(r.rng.Intn(40))*orderTick
	}
	r.lastAt[i] = max(r.lastAt[i], at)
	id := r.id()
	if r.ref {
		r.refSchedule(at, id)
		return
	}
	if r.lines[i].PushAt(at, id) {
		r.linePush++
	} else {
		r.fallbacks++
		r.eng.ScheduleHandlerAt(at, r, id)
	}
}

func (r *orderRig) handlerEvent() {
	at := r.eng.Now() + Time(r.rng.Intn(40))*orderTick
	id := r.id()
	if r.ref {
		r.refSchedule(at, id)
		return
	}
	r.eng.ScheduleHandlerAt(at, r, id)
}

func (r *orderRig) resetTimer(i int) {
	at := r.eng.Now() + Time(r.rng.Intn(40))*orderTick
	id := r.id()
	if r.ref {
		delete(r.alive, r.timerID[i])
		r.timerID[i] = id
		r.refSchedule(at, id)
		return
	}
	r.timerID[i] = id
	r.timers[i].ResetAt(at)
}

func (r *orderRig) stopTimer(i int) {
	if r.ref {
		delete(r.alive, r.timerID[i])
	} else {
		r.timers[i].Stop()
	}
	r.timerID[i] = 0
}

// closure schedules a caller-owned event and keeps its handle; a third are
// cancelled at once.
func (r *orderRig) closure() {
	at := r.eng.Now() + Time(r.rng.Intn(40))*orderTick
	id := r.id()
	cancelNow := r.rng.Intn(3) == 0
	if r.ref {
		if !cancelNow {
			r.refSchedule(at, id)
			r.closIDs = append(r.closIDs, id)
		}
		return
	}
	ev := r.eng.ScheduleAt(at, func() { r.fired(id) })
	if cancelNow {
		ev.Cancel()
		return
	}
	r.closures = append(r.closures, ev)
	r.closIDs = append(r.closIDs, id)
}

// cancelClosure cancels a random earlier closure, which may already have
// fired (then it is a no-op in both rigs).
func (r *orderRig) cancelClosure() {
	if len(r.closIDs) == 0 {
		return
	}
	k := r.rng.Intn(len(r.closIDs))
	if r.ref {
		delete(r.alive, r.closIDs[k])
	} else {
		r.closures[k].Cancel()
	}
}

// OnEvent receives line deliveries and pooled handler events (and, on the
// reference rig, everything).
func (r *orderRig) OnEvent(arg any) {
	id := arg.(int)
	if r.ref {
		if !r.alive[id] {
			r.tombs++
			return
		}
		delete(r.alive, id)
		for i, tid := range r.timerID {
			if tid == id {
				r.timerID[i] = 0
			}
		}
	}
	r.fired(id)
}

// fired logs a live dispatch and lets the event schedule follow-on work, as
// a port's delivery forwards to the next hop or re-arms a timer.
func (r *orderRig) fired(id int) {
	r.log = append(r.log, stamp{r.eng.Now(), id})
	switch r.rng.Intn(6) {
	case 0, 1:
		r.pushLine(r.rng.Intn(len(r.lines)))
	case 2:
		r.handlerEvent()
	case 3:
		r.resetTimer(r.rng.Intn(len(r.timers)))
	}
}

type timerFire struct{ r *orderRig }

func (t timerFire) OnEvent(arg any) {
	i := arg.(int)
	id := t.r.timerID[i]
	t.r.timerID[i] = 0
	t.r.fired(id)
}

// run plays the schedule: top-level operations interleaved with RunUntil
// slices of random length, then a final drain.
func (r *orderRig) run(t *testing.T) {
	for op := 0; op < 4000; op++ {
		switch k := r.rng.Intn(10); {
		case k < 4:
			r.pushLine(r.rng.Intn(len(r.lines)))
		case k == 4:
			r.handlerEvent()
		case k == 5:
			r.resetTimer(r.rng.Intn(len(r.timers)))
		case k == 6:
			r.stopTimer(r.rng.Intn(len(r.timers)))
		case k == 7:
			r.closure()
		case k == 8:
			r.cancelClosure()
		default:
			r.eng.RunUntil(r.eng.Now() + Time(r.rng.Intn(20))*orderTick)
			if !r.ref {
				for i := range r.lines {
					checkLineHead(t, &r.lines[i])
				}
			}
		}
	}
	r.eng.Run()
}

// TestLineOrderEquivalence: a schedule mixing delay lines, pooled handler
// events, timers and cancelled closures dispatches exactly the (at, id)
// sequence of the same schedule sent through ScheduleHandlerAt alone, and
// counts exactly one executed event per live dispatch.
func TestLineOrderEquivalence(t *testing.T) {
	mixed := newOrderRig(false)
	mixed.run(t)
	ref := newOrderRig(true)
	ref.run(t)

	t.Logf("%d dispatches: %d line pushes, %d fallbacks, %d reference tombstones",
		len(mixed.log), mixed.linePush, mixed.fallbacks, ref.tombs)
	if mixed.linePush < 1000 || mixed.fallbacks < 100 {
		t.Fatalf("schedule too tame: %d line pushes, %d fallbacks", mixed.linePush, mixed.fallbacks)
	}
	if len(mixed.log) != len(ref.log) {
		t.Fatalf("mixed rig dispatched %d events, reference %d", len(mixed.log), len(ref.log))
	}
	for i := range mixed.log {
		if mixed.log[i] != ref.log[i] {
			t.Fatalf("dispatch %d: mixed %+v, reference %+v", i, mixed.log[i], ref.log[i])
		}
	}
	if got, want := mixed.eng.Executed(), uint64(len(ref.log)); got != want {
		t.Fatalf("mixed Executed() = %d, want one per live dispatch (%d)", got, want)
	}
	if got, want := ref.eng.Executed(), uint64(len(ref.log)+ref.tombs); got != want {
		t.Fatalf("reference Executed() = %d, want %d live + %d dead", got, len(ref.log), ref.tombs)
	}
	for i := range mixed.lines {
		if l := &mixed.lines[i]; l.Len() != 0 || l.ev.idx >= 0 {
			t.Fatalf("line %d not drained: %d entries, heap index %d", i, l.Len(), l.ev.idx)
		}
	}
	if mixed.eng.Pending() != 0 {
		t.Fatalf("%d events left queued", mixed.eng.Pending())
	}
}

// TestLineHoldsOneHeapEntry: however many entries a line holds, it costs
// the engine heap one entry, and the entries dispatch in FIFO order at
// their own deadlines.
func TestLineHoldsOneHeapEntry(t *testing.T) {
	e := NewEngine(1)
	h := &countHandler{}
	var l Line
	l.Init(e, h)
	for i := 0; i < 1000; i++ {
		if !l.PushAt(Time(i/3), i) {
			t.Fatalf("in-order push %d refused", i)
		}
	}
	if l.PushAt(Time(100), -1) {
		t.Fatal("push earlier than the tail accepted")
	}
	if e.Pending() != 1 || l.Len() != 1000 {
		t.Fatalf("Pending = %d, Len = %d; want 1 heap entry for 1000 line entries", e.Pending(), l.Len())
	}
	e.Run()
	if len(h.args) != 1000 || e.Executed() != 1000 {
		t.Fatalf("dispatched %d (executed %d), want 1000", len(h.args), e.Executed())
	}
	for i, a := range h.args {
		if a != i {
			t.Fatalf("dispatch %d carried arg %v", i, a)
		}
	}
	if e.Now() != Time(999/3) || e.Pending() != 0 {
		t.Fatalf("clock %v, pending %d after drain", e.Now(), e.Pending())
	}
}

// TestLinePushClampsToNow: a deadline in the past is clamped to the clock,
// exactly as ScheduleHandlerAt clamps it.
func TestLinePushClampsToNow(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	var l Line
	l.Init(e, HandlerFunc(func(any) { got = append(got, e.Now()) }))
	e.RunUntil(50)
	if !l.PushAt(10, nil) {
		t.Fatal("push into an empty line refused")
	}
	e.Run()
	if len(got) != 1 || got[0] != 50 {
		t.Fatalf("past deadline dispatched at %v, want 50", got)
	}
}

func BenchmarkLineSteadyState(b *testing.B) {
	// A link with 4096 packets in propagation: each delivery pushes the
	// next. Must report 0 allocs/op once the ring has grown.
	e := NewEngine(1)
	var l Line
	n := 0
	l.Init(e, HandlerFunc(func(any) {
		n++
		if n < b.N {
			l.PushAt(e.Now()+4096, nil)
		}
	}))
	for i := 0; i < 4096; i++ {
		l.PushAt(Time(i), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
