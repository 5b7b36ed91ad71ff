//go:build !race

// Allocation-regression gates for the zero-allocation event core: a
// steady-state dumbbell run must stay at or under one heap allocation per
// forwarded data segment, end to end. The race detector changes the
// allocation profile, so these tests build only without -race (the Makefile
// runs them as a separate non-race step).
package repro

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/failpoint"
	"repro/internal/faults"
	"repro/internal/flows"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/units"
)

// allocGuardConfig is the guard scenario from the issue: a 2-flow CUBIC
// dumbbell at 100 Mbps with a 2×BDP FIFO — pure steady-state forwarding.
func allocGuardConfig() experiment.Config {
	return experiment.Config{
		Pairing:    experiment.Pairing{CCA1: cca.Cubic, CCA2: cca.Cubic},
		AQM:        aqm.KindFIFO,
		QueueBDP:   2,
		Bottleneck: 100 * units.MegabitPerSec,
		Duration:   2 * time.Second,
	}
}

func TestAllocGuardSteadyStateDumbbell(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	cfg := allocGuardConfig()

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})

	// Delivered data segments are a conservative (under-)count of packets
	// forwarded through the bottleneck: retransmitted and dropped copies
	// also crossed ports but are excluded from the denominator.
	goodputBytes := (last.SenderBps[0] + last.SenderBps[1]) * cfg.Duration.Seconds() / 8
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}

	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments → %.3f allocs per forwarded data packet",
		allocs, segments, perPacket)
	if perPacket > 1.0 {
		t.Errorf("allocation regression: %.3f allocs per forwarded data packet (budget ≤ 1); "+
			"every per-packet event must come from the engine pool", perPacket)
	}
}

// BenchmarkSteadyStateAllocs reports the same quantity as a benchmark so
// regressions show up in routine `go test -bench` output.
func BenchmarkSteadyStateAllocs(b *testing.B) {
	cfg := allocGuardConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		goodputBytes := (res.SenderBps[0] + res.SenderBps[1]) * cfg.Duration.Seconds() / 8
		b.ReportMetric(float64(res.Events)/cfg.Duration.Seconds(), "events/simsec")
		b.ReportMetric(goodputBytes/8900, "segments")
	}
}

// TestAllocGuardTracingDisabled: the telemetry hooks threaded through the
// hot path (tcp ACK processing, CCA OnAck, every enqueue/dequeue/drop) are
// nil-receiver no-ops when no tracer is attached. With tracing disabled —
// even with the observation knobs set, proving they alone arm nothing — the
// per-packet allocation budget must be exactly the baseline's ≤ 1.
func TestAllocGuardTracingDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	cfg := allocGuardConfig()
	cfg.Trace = false
	cfg.TraceRingCap = 4096 // ignored while Trace is false
	cfg.TraceSampleN = 4

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})

	goodputBytes := (last.SenderBps[0] + last.SenderBps[1]) * cfg.Duration.Seconds() / 8
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}
	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments → %.3f allocs per forwarded data packet",
		allocs, segments, perPacket)
	if perPacket > 1.0 {
		t.Errorf("disabled tracing is not free: %.3f allocs per forwarded data packet "+
			"(budget ≤ 1, identical to the pre-telemetry baseline)", perPacket)
	}
}

// TestAllocGuardWithFaultProfile: the fault-injection path (Gilbert–Elliott
// chain consulted per transmitted packet, flap/step timeline armed) must
// not add per-packet allocations — the same ≤ 1 alloc budget as the clean
// run. Profile setup costs a handful of one-time allocations per run,
// amortized to noise over the half-million forwarded segments.
func TestAllocGuardWithFaultProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	cfg := allocGuardConfig()
	cfg.Faults = &faults.Profile{
		GE:      &faults.GilbertElliott{PGoodBad: 0.01, PBadGood: 0.3, LossBad: 0.5},
		Flaps:   []faults.Flap{{At: 900 * time.Millisecond, Down: 50 * time.Millisecond}},
		BWSteps: []faults.BWStep{{At: 1500 * time.Millisecond, Factor: 0.8}},
	}

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})
	if last.FaultLossDrops == 0 || last.FaultDownDrops == 0 {
		t.Fatalf("fault profile inactive during alloc guard: %+v", last)
	}

	goodputBytes := (last.SenderBps[0] + last.SenderBps[1]) * cfg.Duration.Seconds() / 8
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}
	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments → %.3f allocs per forwarded data packet",
		allocs, segments, perPacket)
	if perPacket > 1.0 {
		t.Errorf("fault path allocation regression: %.3f allocs per forwarded data packet "+
			"(budget ≤ 1, same as the clean run)", perPacket)
	}
}

// TestAllocGuardFailpointsDisabled: the failpoint hooks threaded through
// the durability layer (checkpoint open/append/fsync/compact, cache puts,
// RPC attempts) must be branch-cheap and alloc-free when disarmed. The
// worst realistic state is "armed elsewhere": some unrelated point is
// enabled, so every Eval takes the armed-but-miss path (global flag load +
// mutex + name lookup) rather than the single atomic load. Even then the
// simulate-and-checkpoint loop must hold the baseline per-packet budget,
// and the checkpoint appends themselves must not fire or slow.
func TestAllocGuardFailpointsDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	if err := failpoint.Enable("unrelated.alloc.guard=err(never hit)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	cfg := allocGuardConfig()

	dir := t.TempDir()
	run := 0
	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Exercise the failpoint-instrumented journal path end to end:
		// open (checkpoint.open), append (checkpoint.append.write +
		// checkpoint.fsync), close. All hooks evaluate and miss.
		run++
		ck, err := experiment.OpenCheckpoint(filepath.Join(dir, fmt.Sprintf("guard%d.jsonl", run)))
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Append(res); err != nil {
			t.Fatal(err)
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		last = res
	})

	goodputBytes := (last.SenderBps[0] + last.SenderBps[1]) * cfg.Duration.Seconds() / 8
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}
	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments → %.3f allocs per forwarded data packet",
		allocs, segments, perPacket)
	if perPacket > 1.0 {
		t.Errorf("disarmed failpoints are not free: %.3f allocs per forwarded data packet "+
			"(budget ≤ 1, identical to the pre-failpoint baseline)", perPacket)
	}
}

// TestAllocGuardOpenLoop: the open-loop workload churns flows through the
// engine — attach, transfer, teardown, sketch update — on top of the two
// elephants. Flow setup/teardown costs a bounded number of allocations per
// flow (connection, receiver, demux entries), amortized to noise over the
// run's half-million forwarded segments, so the combined traffic must hold
// the same ≤ 1 alloc per forwarded data packet budget as the static run.
func TestAllocGuardOpenLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	// Twice the default mice arrival rate: ~20 flows churn through the 2s
	// run (attach + teardown every ~100ms) while the elephants keep the
	// denominator honest.
	cfg := allocGuardConfig()
	cfg.Flows = &flows.Spec{Populations: []flows.Population{
		{Name: "mice", MeanArrival: 100 * time.Millisecond},
	}}

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})
	if last.FCT == nil || last.FCT.Completed == 0 {
		t.Fatalf("open-loop workload inactive during alloc guard: %+v", last.FCT)
	}

	// Elephant goodput plus the completed mice payload, both forwarded
	// through the bottleneck.
	goodputBytes := (last.SenderBps[0]+last.SenderBps[1])*cfg.Duration.Seconds()/8 +
		float64(last.FCT.Class("all").Bytes)
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}
	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments (%d flows churned) → %.3f allocs per forwarded data packet",
		allocs, segments, last.FCT.Opened, perPacket)
	if perPacket > 1.0 {
		t.Errorf("open-loop allocation regression: %.3f allocs per forwarded data packet "+
			"(budget ≤ 1, flow churn must amortize away)", perPacket)
	}
}

// TestAllocGuardSoloFCT: the solo baseline of the open-loop workload —
// mice alone on the dumbbell, no elephants — is all churn: every segment
// belongs to a connection that opens, transfers and closes mid-run. The
// network's shared segment pool hands each new connection the records the
// finished ones returned, so even this run holds the ≤ 1 alloc per
// forwarded data packet budget.
func TestAllocGuardSoloFCT(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	cfg := allocGuardConfig()
	cfg.Flows = &flows.Spec{Populations: []flows.Population{
		{Name: "mice", MeanArrival: 100 * time.Millisecond},
	}}
	cfg.SoloFCT = true

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})
	if last.FCT == nil || last.FCT.Completed == 0 {
		t.Fatalf("solo mice workload inactive during alloc guard: %+v", last.FCT)
	}
	goodputBytes := (last.SenderBps[0]+last.SenderBps[1])*cfg.Duration.Seconds()/8 +
		float64(last.FCT.Class("all").Bytes)
	segments := goodputBytes / 8900
	if segments < 100 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}
	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments (%d flows churned) → %.3f allocs per forwarded data packet",
		allocs, segments, last.FCT.Opened, perPacket)
	if perPacket > 1.0 {
		t.Errorf("solo-FCT allocation regression: %.3f allocs per forwarded data packet "+
			"(budget ≤ 1; connections must draw segments from the network's shared pool)", perPacket)
	}
}

// TestAllocGuardDelayLine: packets in propagation ride the port's delay
// line, whose ring grows to the link's in-flight depth once and is reused
// from then on. A 10 Gbps link with 10 ms of delay keeps a 2000-packet
// burst in flight at once; after the first burst has grown the ring, a
// steady-state burst must cost zero allocations end to end.
func TestAllocGuardDelayLine(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &netem.Sink{}
	po := netem.NewPort(eng, "line", 10*units.GigabitPerSec, 10*time.Millisecond,
		aqm.NewFIFO(1<<30), sink)
	const burst = 2000
	send := func() {
		for i := 0; i < burst; i++ {
			p := packet.New()
			p.Kind = packet.Data
			p.Size = 8960
			po.Send(p)
		}
		eng.Run()
	}
	send() // grows the ring, the event pool and the packet pool
	peak := 0
	eng.ScheduleAt(eng.Now()+sim.Duration(5*time.Millisecond), func() { peak = eng.Pending() })
	allocs := testing.AllocsPerRun(5, send)
	if sink.Packets != 7*burst {
		t.Fatalf("sink received %d packets, want %d", sink.Packets, 7*burst)
	}
	t.Logf("%.0f allocs per %d-packet burst; heap depth %d mid-flight", allocs, burst, peak)
	if allocs != 0 {
		t.Errorf("delay-line steady state allocates: %.0f allocs per %d-packet burst (want 0)", allocs, burst)
	}
}

// TestAllocGuardFairnessSampling: the fairness observatory rides inside the
// per-packet budget. Its timer tick reads two cumulative counters per flow
// and appends to series preallocated for the whole run horizon, so an armed
// sampler adds only its one-time setup — amortized to noise over the run's
// half-million forwarded segments — and the steady state must hold the same
// ≤ 1 alloc per forwarded data packet as the baseline.
func TestAllocGuardFairnessSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	cfg := allocGuardConfig()
	cfg.Fairness = true
	cfg.FairnessWindow = 10 * time.Millisecond // 10× the default cadence

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})
	if last.Fairness == nil || last.Fairness.Windows < 100 {
		t.Fatalf("fairness observatory inactive during alloc guard: %+v", last.Fairness)
	}

	goodputBytes := (last.SenderBps[0] + last.SenderBps[1]) * cfg.Duration.Seconds() / 8
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}
	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments (%d windows sampled) → %.3f allocs per forwarded data packet",
		allocs, segments, last.Fairness.Windows, perPacket)
	if perPacket > 1.0 {
		t.Errorf("fairness sampling allocation regression: %.3f allocs per forwarded data packet "+
			"(budget ≤ 1; the windowed series must be preallocated for the horizon)", perPacket)
	}
}

// TestAllocGuardFairnessDisabled: with the observatory off — even with the
// window knob set, proving it alone arms nothing — no sampler or timer is
// installed at all and the budget is exactly the baseline's ≤ 1.
func TestAllocGuardFairnessDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	cfg := allocGuardConfig()
	cfg.Fairness = false
	cfg.FairnessWindow = 10 * time.Millisecond // ignored while Fairness is false

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})
	if last.Fairness != nil {
		t.Fatalf("fairness report present with the observatory off")
	}

	goodputBytes := (last.SenderBps[0] + last.SenderBps[1]) * cfg.Duration.Seconds() / 8
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}
	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments → %.3f allocs per forwarded data packet",
		allocs, segments, perPacket)
	if perPacket > 1.0 {
		t.Errorf("disabled fairness observatory is not free: %.3f allocs per forwarded data packet "+
			"(budget ≤ 1, identical to the pre-observatory baseline)", perPacket)
	}
}

// TestAllocGuardParkingLot: the graph builder's multi-bottleneck path —
// demux fan-out at divergent links, per-hop sender classes, three AQM
// instances in series — must hold the same steady-state budget as the
// dumbbell: at most one heap allocation per delivered data segment.
func TestAllocGuardParkingLot(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	pl := topo.ParkingLotSpec(3)
	cfg := allocGuardConfig()
	cfg.Topology = &pl

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})

	var goodputBytes float64
	for _, g := range last.Groups {
		goodputBytes += g.Bps * cfg.Duration.Seconds() / 8
	}
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}
	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments → %.3f allocs per forwarded data packet",
		allocs, segments, perPacket)
	if perPacket > 1.0 {
		t.Errorf("parking-lot allocation regression: %.3f allocs per forwarded data packet "+
			"(budget ≤ 1, same as the dumbbell)", perPacket)
	}
}
