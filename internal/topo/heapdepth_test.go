package topo

import (
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// dumbbellHeapPeak builds the cubic:cubic FIFO 1×BDP dumbbell at rate bw
// with flowsPerClass flows per sender, runs it for d in 100 RunUntil
// slices, and returns the deepest Engine.Pending() seen between slices and
// the data packets the bottleneck transmitted.
func dumbbellHeapPeak(t *testing.T, bw units.Bandwidth, flowsPerClass int, d time.Duration) (peak int, tx uint64) {
	t.Helper()
	const rtt = 62 * time.Millisecond
	eng := sim.NewEngine(1)
	net, err := Build(eng, DumbbellSpec(), Params{
		Bottleneck: bw,
		RTT:        rtt,
		Queue:      aqm.Config{Kind: aqm.KindFIFO, Capacity: units.QueueBytes(bw, rtt, 1, 8960)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < net.NumClasses(); ci++ {
		for i := 0; i < flowsPerClass; i++ {
			cc, err := cca.New(cca.Cubic)
			if err != nil {
				t.Fatal(err)
			}
			f := net.AddFlow(ci, tcp.Config{}, cc)
			eng.Schedule(time.Duration(ci*flowsPerClass+i)*time.Millisecond, f.Conn.Start)
		}
	}
	end := sim.Duration(d)
	const slices = 100
	for k := 1; k <= slices; k++ {
		eng.RunUntil(end * sim.Time(k) / slices)
		peak = max(peak, eng.Pending())
	}
	return peak, net.Monitor().TxPackets()
}

// TestHeapDepthIndependentOfBandwidth: packets in propagation ride their
// link's delay line, so the event heap holds O(ports + timers) entries.
// At 10 Gbps the dumbbell keeps a hundred times more packets in flight
// than at 100 Mbps, yet its peak heap depth must stay within a small
// constant of the 100 Mbps peak.
func TestHeapDepthIndependentOfBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a second of 10 Gbps traffic; skipped in -short mode")
	}
	const flowsPerClass = 2
	slow, slowTx := dumbbellHeapPeak(t, 100*units.MegabitPerSec, flowsPerClass, 2*time.Second)
	fast, fastTx := dumbbellHeapPeak(t, 10*units.GigabitPerSec, flowsPerClass, time.Second)
	t.Logf("peak heap depth: %d at 100 Mbps (%d packets), %d at 10 Gbps (%d packets)",
		slow, slowTx, fast, fastTx)
	if fastTx < 20*slowTx {
		t.Fatalf("10 Gbps run moved only %d packets against %d at 100 Mbps: not a high-BDP run", fastTx, slowTx)
	}
	const slack = 8
	if fast > slow+slack {
		t.Fatalf("peak heap depth grew with bandwidth: %d at 10 Gbps against %d at 100 Mbps (slack %d)",
			fast, slow, slack)
	}
}
