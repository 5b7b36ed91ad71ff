package main

import (
	"container/heap"
	"time"
)

// The reference loop is a fixed piece of work that resembles the
// simulator's hot path — a deep time-ordered event queue of heap-allocated
// items and a map update per event — but uses none of the program's code.
// It allocates its queue once per call and nothing per event, so it leaves
// the process's peak memory and the next job's garbage collection alone.
// The untraced run times it after every job, so each run measures how fast
// the host is while the run is going on. Dividing the program's CPU cost
// by the reference loop's cancels the host's speed: on a shared virtual
// machine other tenants slow both alike for tens of seconds to minutes at
// a time, by more than any usable bound.
//
// setup_s is the set-up's CPU time scaled the same way, to seconds on a
// nominal host on which the loop takes refNominal, about what it takes on
// the 2-vCPU Xeon virtual machine the benchmark was written on.
//
// Changing the loop changes every norm_cpu_per_sim_s and setup_s figure;
// compare only runs made with the same loop.

const (
	refDepth   = 16000  // queue depth, like a 10 Gbps config's event heap
	refEvents  = 600000 // events popped and rescheduled per loop
	refNominal = 300 * time.Millisecond
)

type refEvent struct{ at, seq uint64 }

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// refSink keeps the loop's result live so the compiler cannot drop it.
var refSink uint64

// refLoop runs the reference loop once and returns the process CPU time
// it took.
func refLoop() time.Duration {
	rng := splitmix(7)
	q := make(refQueue, 0, refDepth)
	var seq uint64
	for i := 0; i < refDepth; i++ {
		seq++
		heap.Push(&q, &refEvent{at: rng.next() % 1000000, seq: seq})
	}
	flows := map[uint64]int{}
	c0 := cpuTime()
	for i := 0; i < refEvents; i++ {
		ev := heap.Pop(&q).(*refEvent)
		flows[ev.at%4096]++
		seq++
		ev.at, ev.seq = ev.at+rng.next()%100000, seq
		heap.Push(&q, ev)
	}
	d := cpuTime() - c0
	refSink += q[0].at + uint64(len(flows))
	return d
}
