package sim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
)

// expectViolation runs fn expecting a *Violation panic and returns it.
func expectViolation(t *testing.T, fn func()) *audit.Violation {
	t.Helper()
	var v *audit.Violation
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			var ok bool
			if v, ok = r.(*audit.Violation); !ok {
				panic(r)
			}
		}()
		fn()
	}()
	if v == nil {
		t.Fatal("expected a *audit.Violation panic, got none")
	}
	return v
}

func auditedEngine() (*Engine, *audit.Auditor) {
	e := NewEngine(1)
	a := audit.New("sim-audit-test")
	e.SetAuditor(a)
	return e, a
}

// TestAuditedEngineCleanRun exercises every scheduling surface under the
// auditor — closures, pooled handler events (forcing pool reuse), and a
// self-rearming timer — and requires Finish to settle clean.
func TestAuditedEngineCleanRun(t *testing.T) {
	e, a := auditedEngine()
	h := &countHandler{}
	for i := 0; i < 100; i++ {
		e.ScheduleHandler(time.Duration(i)*time.Millisecond, h, i)
	}
	fired := 0
	e.Schedule(50*time.Millisecond, func() { fired++ })
	var tm Timer
	tm.Init(e, HandlerFunc(func(any) {
		fired++
		if fired < 10 {
			tm.Reset(time.Millisecond)
		}
	}), nil)
	tm.Reset(time.Millisecond)
	e.Run()
	if len(h.args) != 100 || fired != 11 { // 10 timer fires + the 50 ms closure
		t.Fatalf("dispatched %d handler / %d closure+timer events", len(h.args), fired)
	}
	a.Finish()
}

// TestAuditorCatchesPoolDoubleFree releases the same pooled event twice —
// the second release must raise sim/pool-double-free, since the zeroed
// free-list copy no longer carries the pooled mark.
func TestAuditorCatchesPoolDoubleFree(t *testing.T) {
	e, _ := auditedEngine()
	e.ScheduleHandler(0, &countHandler{}, nil)
	e.Run() // fires and releases the pooled event into e.free
	if len(e.free) != 1 {
		t.Fatalf("free list holds %d events, want 1", len(e.free))
	}
	v := expectViolation(t, func() { e.release(e.free[0]) })
	if v.Layer != "sim" || v.Rule != "pool-double-free" {
		t.Fatalf("violation attributed to %s/%s, want sim/pool-double-free", v.Layer, v.Rule)
	}
}

// TestAuditorCatchesReleaseOfQueuedEvent releases a pooled event that is
// still sitting in the heap — the auditor must flag it before the pool and
// the heap end up sharing one event object.
func TestAuditorCatchesReleaseOfQueuedEvent(t *testing.T) {
	e, _ := auditedEngine()
	e.ScheduleHandlerAt(Duration(time.Second), &countHandler{}, nil)
	v := expectViolation(t, func() { e.release(e.queue[0]) })
	if v.Rule != "pool-release-queued" {
		t.Fatalf("rule = %s, want pool-release-queued", v.Rule)
	}
}

// TestAuditorCatchesCorruptFreeList plants a non-zeroed event on the free
// list; the next pooled schedule must refuse to hand it out.
func TestAuditorCatchesCorruptFreeList(t *testing.T) {
	e, _ := auditedEngine()
	e.free = append(e.free, &Event{eng: e, pooled: true, idx: -1})
	v := expectViolation(t, func() { e.ScheduleHandler(0, &countHandler{}, nil) })
	if v.Rule != "pool-corrupt" {
		t.Fatalf("rule = %s, want pool-corrupt", v.Rule)
	}
	if !strings.Contains(v.Detail, "pooled=true") {
		t.Fatalf("detail %q does not describe the corruption", v.Detail)
	}
}

// TestAuditorCatchesTimeRegression corrupts the clock past a queued
// deadline; the dispatch loop must refuse to run time backwards.
func TestAuditorCatchesTimeRegression(t *testing.T) {
	e, _ := auditedEngine()
	e.ScheduleAt(Duration(5*time.Millisecond), func() {})
	e.now = Duration(10 * time.Millisecond)
	v := expectViolation(t, e.Run)
	if v.Rule != "time-monotone" {
		t.Fatalf("rule = %s, want time-monotone", v.Rule)
	}
}

// TestAuditorCatchesStuckEvent verifies the end-of-run quiescence check: an
// event that was due but never dispatched (here forced by corrupting its
// deadline under the heap) is a violation at Finish.
func TestAuditorCatchesStuckEvent(t *testing.T) {
	e, a := auditedEngine()
	e.ScheduleAt(Duration(time.Second), func() {})
	e.RunUntil(Duration(500 * time.Millisecond))
	// Corrupt the queued deadline to be in the past without re-heapifying —
	// the stuck-event shape the check exists to catch.
	e.queue[0].at = Duration(100 * time.Millisecond)
	v := expectViolation(t, a.Finish)
	if v.Layer != "sim" || v.Rule != "quiescence" {
		t.Fatalf("violation attributed to %s/%s, want sim/quiescence", v.Layer, v.Rule)
	}
	if !strings.Contains(v.Detail, "still queued") {
		t.Fatalf("detail %q does not describe the stuck event", v.Detail)
	}
}

// TestQuiescenceAcceptsFutureEvents: events legitimately scheduled beyond
// the run horizon are not violations — only past-due ones are.
func TestQuiescenceAcceptsFutureEvents(t *testing.T) {
	e, a := auditedEngine()
	e.ScheduleAt(Duration(2*time.Second), func() {})
	e.RunUntil(Duration(time.Second))
	a.Finish()
}

// TestAuditedHeapIntegrityAfterChurn cross-checks that heavy cancel/reset
// churn under the auditor leaves a structurally valid heap (indices match
// positions, parent ≤ child ordering with the parent derived from the
// heap's arity) and that every non-empty delay line has exactly its first
// entry in the heap.
func TestAuditedHeapIntegrityAfterChurn(t *testing.T) {
	e, a := auditedEngine()
	rng := NewRNG(99)
	var timers [8]Timer
	var lines [4]Line
	h := HandlerFunc(func(any) {})
	for i := range timers {
		timers[i].Init(e, h, i)
	}
	for i := range lines {
		lines[i].Init(e, h)
	}
	for i := 0; i < 2000; i++ {
		switch rng.Intn(5) {
		case 0:
			e.ScheduleHandler(time.Duration(rng.Intn(1000))*time.Microsecond, h, nil)
		case 1:
			e.Schedule(time.Duration(rng.Intn(1000))*time.Microsecond, func() {}).Cancel()
		case 2:
			timers[rng.Intn(len(timers))].Reset(time.Duration(rng.Intn(500)) * time.Microsecond)
		case 3:
			timers[rng.Intn(len(timers))].Stop()
		case 4:
			at := e.Now() + Duration(time.Duration(rng.Intn(1000))*time.Microsecond)
			if l := &lines[rng.Intn(len(lines))]; !l.PushAt(at, nil) {
				e.ScheduleHandlerAt(at, h, nil)
			}
		}
		if i%97 == 0 {
			e.RunFor(200 * time.Microsecond)
		}
	}
	for i, ev := range e.queue {
		if ev.idx != i {
			t.Fatalf("heap[%d] carries idx %d", i, ev.idx)
		}
		if parent := (i - 1) / heapArity; i > 0 && before(ev, e.queue[parent]) {
			t.Fatalf("heap order violated at %d", i)
		}
	}
	for i := range lines {
		checkLineHead(t, &lines[i])
	}
	e.Run()
	a.Finish()
}

// checkLineHead asserts that a non-empty line's heap entry sits in the heap
// at its recorded index, keyed to the line's first entry, and that an
// empty line holds no heap entry.
func checkLineHead(t *testing.T, l *Line) {
	t.Helper()
	if l.n == 0 {
		if l.ev.idx >= 0 {
			t.Fatalf("empty line still queued at heap index %d", l.ev.idx)
		}
		return
	}
	q := l.ev.eng.queue
	if l.ev.idx < 0 || l.ev.idx >= len(q) || q[l.ev.idx] != &l.ev {
		t.Fatalf("line with %d entries has no heap entry (idx %d)", l.n, l.ev.idx)
	}
	if first := l.ring[l.head]; l.ev.at != first.at || l.ev.seq != first.seq {
		t.Fatalf("line head keyed (%v, %d), first entry is (%v, %d)",
			l.ev.at, l.ev.seq, first.at, first.seq)
	}
}
