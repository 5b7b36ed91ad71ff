// Package sim implements the discrete-event simulation engine every other
// subsystem runs on: a nanosecond-resolution virtual clock, a typed 4-ary
// event heap with stable FIFO ordering for simultaneous events, delay lines
// that keep a link's in-flight deliveries out of the heap, and a
// deterministic random number generator.
//
// One Engine is owned by exactly one goroutine; parallelism in the harness
// comes from running many independent engines concurrently, never from
// sharing one.
//
// # Event ownership and pooling
//
// The engine offers four scheduling surfaces with different ownership
// rules, chosen so the steady-state forwarding path performs zero heap
// allocations per event:
//
//   - Schedule/ScheduleAt (closure API): the returned *Event is owned by
//     the caller, is never recycled, and stays valid forever — Cancel and
//     Pending are safe at any point, including after the event has fired.
//     Use this for setup-time and low-rate work.
//
//   - ScheduleHandler/ScheduleHandlerAt (handler API): the event object is
//     owned by the engine, drawn from a per-engine free list, and returned
//     to it as soon as the event fires. No handle is exposed, so these
//     events cannot be cancelled; they are the right tool for fire-and-
//     forget per-packet work (serialization done, a delivery that would
//     overtake its delay line).
//
//   - Line: a caller-owned delay line for deliveries whose deadlines never
//     decrease (a link's packets in propagation). Only its earliest entry
//     is in the heap, so the heap stays O(lines + timers) deep however
//     many packets are in flight. A push that would overtake the tail is
//     refused, and the caller schedules it with ScheduleHandlerAt instead.
//
//   - Timer: a caller-owned, reusable timer for recurring deadlines (RTO,
//     pacing release, delayed ACK, samplers). Its event storage is embedded
//     in the Timer itself, so Reset/Stop never allocate: Reset reschedules
//     in place when the timer is already queued. A Timer must not be
//     copied after Init (the heap holds a pointer into it).
//
// Cancelling (Event.Cancel, Timer.Stop) removes the entry from the heap
// eagerly, so long runs that repeatedly rearm timers do not accumulate
// dead entries.
package sim

import (
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/telemetry"
)

// Time is a simulation timestamp in nanoseconds since the start of the run.
type Time int64

// Duration converts a standard library duration to simulation ticks.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds returns the timestamp in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Std converts a simulation timestamp back into a time.Duration.
func (t Time) Std() time.Duration { return time.Duration(t) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Handler receives dispatched events without a per-event closure. One
// handler instance typically serves many events, distinguished by arg
// (a packet, a small integer timer id, or nil).
type Handler interface {
	OnEvent(arg any)
}

// HandlerFunc adapts a function to the Handler interface. Func values are
// pointer-shaped, so the interface conversion itself does not allocate —
// but unlike a method on a long-lived struct, a new closure does, so hot
// paths should prefer struct handlers created once.
type HandlerFunc func(arg any)

// OnEvent implements Handler.
func (f HandlerFunc) OnEvent(arg any) { f(arg) }

// Event is a scheduled callback. It fires either a closure (Schedule) or a
// Handler (ScheduleHandler/Timer) at its deadline.
type Event struct {
	at  Time
	seq uint64 // tie-break: FIFO among same-time events
	idx int    // heap index, -1 when not queued

	fn  func() // closure dispatch (nil for handler events)
	h   Handler
	arg any

	eng    *Engine // owner, for eager heap removal on Cancel
	line   *Line   // non-nil for a delay line's head entry
	pooled bool    // engine-owned: recycled into the free list after firing
}

// Cancel removes a pending event from the queue so it will not run. Safe to
// call multiple times and after the event has fired (then it is a no-op).
// Only valid for caller-owned events (Schedule/ScheduleAt).
func (e *Event) Cancel() {
	if e == nil || e.idx < 0 {
		return
	}
	e.eng.queue.remove(e.idx)
}

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e != nil && e.idx >= 0 }

// At returns the scheduled time of the event.
func (e *Event) At() Time { return e.at }

// fire dispatches the event's callback.
func (e *Event) fire() {
	if e.fn != nil {
		e.fn()
		return
	}
	e.h.OnEvent(e.arg)
}

// Engine is a single-threaded discrete-event simulator.
type Engine struct {
	now     Time
	queue   eventHeap
	seq     uint64
	stopped bool
	rng     *RNG

	// free is the pool of engine-owned events for the handler path.
	free []*Event

	// Watchdog budget (see SetBudget). budgeted gates the per-event checks
	// so the unbudgeted hot path pays a single predictable branch.
	budgeted  bool
	maxEvents uint64
	maxWall   time.Duration
	wallStart time.Time
	overrun   error

	// Stats.
	executed uint64

	// aud, when non-nil, validates scheduler invariants (time monotonicity,
	// event-pool hygiene, end-of-run quiescence). Every hot-path check is
	// gated on a single nil test so a disabled engine pays one predictable
	// branch and zero allocations.
	aud *audit.Auditor

	// trc, when non-nil, is the run's telemetry tracer. The engine never
	// emits events itself — components discover the tracer at construction
	// (like the auditor) and hold their own flow/port tracers — but it is
	// the rendezvous point, and it wires the auditor's flight recorder when
	// both are attached.
	trc *telemetry.Tracer
}

// NewEngine returns an engine with its clock at zero and a deterministic RNG
// seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// Executed returns the number of events run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of heap entries: queued events, armed timers,
// and one per non-empty delay line. It does not count the entries waiting
// behind a line's head, so it is not the number of packets in flight.
func (e *Engine) Pending() int { return len(e.queue) }

// FreeEvents returns the size of the pooled-event free list (telemetry and
// pool-reuse tests).
func (e *Engine) FreeEvents() int { return len(e.free) }

// SetAuditor attaches (or, with nil, detaches) a runtime invariant auditor.
// The engine becomes the auditor's simulation clock and registers its
// end-of-run quiescence check: after a run, no queued event may be earlier
// than the clock — such an event was due but never dispatched. Components
// built on this engine discover the auditor via Auditor at construction.
func (e *Engine) SetAuditor(a *audit.Auditor) {
	e.aud = a
	if a == nil {
		return
	}
	a.SetClock(func() int64 { return int64(e.now) })
	e.wireFlightRecorder()
	a.OnFinish("sim", "quiescence", func() error {
		if len(e.queue) > 0 && e.queue[0].at < e.now {
			return fmt.Errorf("event due at %v still queued after run ended at %v (%d pending)",
				e.queue[0].at, e.now, len(e.queue))
		}
		return nil
	})
}

// Auditor returns the attached invariant auditor, or nil when auditing is
// disabled.
func (e *Engine) Auditor() *audit.Auditor { return e.aud }

// SetTracer attaches (or, with nil, detaches) the run's telemetry tracer.
// Like SetAuditor it must be called before topology construction so
// components can discover it. When the engine also carries an auditor, the
// auditor's flight recorder is wired to the tracer: a Violation then embeds
// the trailing events of every ring at the moment of the breach.
func (e *Engine) SetTracer(t *telemetry.Tracer) {
	e.trc = t
	e.wireFlightRecorder()
}

// Tracer returns the attached telemetry tracer, or nil when tracing is
// disabled.
func (e *Engine) Tracer() *telemetry.Tracer { return e.trc }

func (e *Engine) wireFlightRecorder() {
	if e.aud == nil {
		return
	}
	if e.trc == nil {
		e.aud.SetFlightRecorder(nil)
		return
	}
	t := e.trc
	e.aud.SetFlightRecorder(func() string { return t.TailNDJSON(0) })
}

// Schedule queues fn to run after delay. A negative delay is clamped to zero
// (runs at the current time, after already-queued same-time events). The
// returned Event is caller-owned and never recycled.
func (e *Engine) Schedule(delay time.Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+Duration(delay), fn)
}

// ScheduleAt queues fn to run at absolute time at. Times in the past are
// clamped to now.
func (e *Engine) ScheduleAt(at Time, fn func()) *Event {
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := &Event{at: at, seq: e.seq, fn: fn, idx: -1, eng: e}
	e.queue.push(ev)
	return ev
}

// ScheduleHandler queues h.OnEvent(arg) to run after delay using a pooled,
// engine-owned event: the hot path allocates nothing once the pool has
// warmed up. The event cannot be cancelled (no handle is returned); use a
// Timer for cancellable or recurring work.
func (e *Engine) ScheduleHandler(delay time.Duration, h Handler, arg any) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleHandlerAt(e.now+Duration(delay), h, arg)
}

// ScheduleHandlerAt is ScheduleHandler with an absolute deadline. Times in
// the past are clamped to now.
func (e *Engine) ScheduleHandlerAt(at Time, h Handler, arg any) {
	if at < e.now {
		at = e.now
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		if e.aud != nil && (ev.pooled || ev.idx >= 0 || ev.h != nil) {
			e.aud.Failf("sim", "pool-corrupt",
				"free-list event not zeroed: pooled=%v idx=%d handler=%v", ev.pooled, ev.idx, ev.h != nil)
		}
	} else {
		ev = &Event{eng: e}
	}
	e.seq++
	ev.at = at
	ev.seq = e.seq
	ev.h = h
	ev.arg = arg
	ev.pooled = true
	e.queue.push(ev)
}

// release zeroes a pooled event and returns it to the free list.
func (e *Engine) release(ev *Event) {
	if e.aud != nil {
		if !ev.pooled {
			e.aud.Failf("sim", "pool-double-free",
				"release of a non-pooled or already-released event (at=%v)", ev.at)
		}
		if ev.idx >= 0 {
			e.aud.Failf("sim", "pool-release-queued",
				"release of an event still queued at heap index %d (at=%v)", ev.idx, ev.at)
		}
	}
	*ev = Event{eng: e, idx: -1}
	e.free = append(e.free, ev)
}

// Stop halts the run loop after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// SetBudget arms the engine watchdog: the run loop aborts once it has
// executed maxEvents events (0 = unlimited) or once maxWall of real time
// has elapsed since SetBudget was called (0 = unlimited). The event budget
// is exact and deterministic; the wall budget is checked every 2^16 events
// and is a machine-dependent safety net for runaway configurations. After
// an overrun the loop stops and Overrun reports why.
func (e *Engine) SetBudget(maxEvents uint64, maxWall time.Duration) {
	e.maxEvents = maxEvents
	e.maxWall = maxWall
	e.wallStart = time.Now()
	e.budgeted = maxEvents > 0 || maxWall > 0
	e.overrun = nil
}

// Overrun returns a non-nil error if a SetBudget limit was exceeded.
func (e *Engine) Overrun() error { return e.overrun }

// checkBudget enforces SetBudget limits; it reports true when the run loop
// must abort.
func (e *Engine) checkBudget() bool {
	if e.overrun != nil {
		return true
	}
	if e.maxEvents > 0 && e.executed >= e.maxEvents {
		e.overrun = fmt.Errorf("sim: watchdog: event budget exceeded (%d events)", e.maxEvents)
		return true
	}
	if e.maxWall > 0 && e.executed&0xffff == 0 && time.Since(e.wallStart) > e.maxWall {
		e.overrun = fmt.Errorf("sim: watchdog: wall budget exceeded (%v)", e.maxWall)
		return true
	}
	return false
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(Time(1<<63 - 1))
}

// RunUntil executes, in deadline order, every queued event whose deadline is
// <= end (including events those callbacks schedule, as long as they also
// fall within end), then leaves the clock at exactly end. If the queue
// drains early, the clock still advances to end; it never moves past it, so
// later events stay queued for a subsequent Run/RunUntil call. The one
// exception is the sentinel end used by Run (the maximum Time), which
// leaves the clock at the last executed event.
func (e *Engine) RunUntil(end Time) {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		next := e.queue[0]
		if next.at > end {
			break
		}
		// The budget is checked only for an event that would run, so a run
		// that needs exactly maxEvents events completes.
		if e.budgeted && e.checkBudget() {
			return // overrun: leave the clock where the watchdog fired
		}
		if e.aud != nil && next.at < e.now {
			e.aud.Failf("sim", "time-monotone",
				"heap head due at %v is earlier than the clock %v", next.at, e.now)
		}
		e.now = next.at
		e.executed++
		if l := next.line; l != nil {
			l.h.OnEvent(l.advance())
			continue
		}
		e.queue.pop()
		next.fire()
		if next.pooled {
			e.release(next)
		}
	}
	if e.now < end && end < Time(1<<63-1) {
		e.now = end
	}
}

// RunFor executes events for d of simulated time from the current clock.
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.now + Duration(d))
}

// Timer is a reusable, caller-owned timer dispatching to a Handler. The
// zero value is unusable; call Init once, then Reset/Stop freely — neither
// allocates. A Timer must not be copied after Init.
type Timer struct {
	ev Event
}

// Init binds the timer to an engine and its dispatch target. arg is passed
// to h.OnEvent on every expiry (commonly a small integer distinguishing the
// owner's timers). Init must be called exactly once, before any Reset.
func (t *Timer) Init(eng *Engine, h Handler, arg any) {
	t.ev = Event{eng: eng, idx: -1, h: h, arg: arg}
}

// Reset (re)schedules the timer to fire after delay, replacing any pending
// deadline. A reset timer behaves like a freshly scheduled event for
// same-deadline FIFO ordering: it runs after events already queued at that
// time. Negative delays are clamped to zero.
func (t *Timer) Reset(delay time.Duration) {
	if delay < 0 {
		delay = 0
	}
	t.ResetAt(t.ev.eng.now + Duration(delay))
}

// ResetAt is Reset with an absolute deadline. Times in the past are clamped
// to now. When the timer is already queued it is rescheduled in place —
// no allocation, no dead entry left behind.
func (t *Timer) ResetAt(at Time) {
	eng := t.ev.eng
	if at < eng.now {
		at = eng.now
	}
	eng.seq++
	t.ev.at = at
	t.ev.seq = eng.seq
	if t.ev.idx >= 0 {
		eng.queue.fix(t.ev.idx, &t.ev)
		return
	}
	eng.queue.push(&t.ev)
}

// Stop removes the timer from the queue if pending (eagerly — no dead entry
// remains in the heap). Safe to call on a never-armed or already-fired
// timer.
func (t *Timer) Stop() {
	if t.ev.idx >= 0 {
		t.ev.eng.queue.remove(t.ev.idx)
	}
}

// Pending reports whether the timer is queued.
func (t *Timer) Pending() bool { return t.ev.idx >= 0 }

// At returns the timer's current (or last) deadline.
func (t *Timer) At() Time { return t.ev.at }
