package netem

import (
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestLossInjectionRate(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &Sink{}
	po := NewPort(eng, "lossy", 10*units.GigabitPerSec, 0, aqm.NewFIFO(1<<30), sink)
	po.SetLoss(0.1)
	const n = 20000
	for i := 0; i < n; i++ {
		po.Send(data(1000))
	}
	eng.Run()
	lost := po.LossDrops()
	if lost < n/20 || lost > n/5 {
		t.Fatalf("10%% loss dropped %d of %d", lost, n)
	}
	if sink.Packets+lost != n {
		t.Fatalf("conservation: %d delivered + %d lost != %d", sink.Packets, lost, n)
	}
}

func TestLossClamping(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &Sink{}
	po := NewPort(eng, "p", units.GigabitPerSec, 0, nil, sink)
	po.SetLoss(-0.5) // clamps to 0
	po.Send(data(100))
	eng.Run()
	if sink.Packets != 1 {
		t.Fatal("negative loss rate should clamp to 0")
	}
	po.SetLoss(2) // clamps to 1
	po.Send(data(100))
	eng.Run()
	if po.LossDrops() != 1 {
		t.Fatal("loss rate >1 should clamp to 1 (drop everything)")
	}
}

func TestZeroLossDefault(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &Sink{}
	po := NewPort(eng, "p", units.GigabitPerSec, 0, aqm.NewFIFO(1<<30), sink)
	for i := 0; i < 1000; i++ {
		po.Send(data(1000))
	}
	eng.Run()
	if po.LossDrops() != 0 || sink.Packets != 1000 {
		t.Fatal("ports must be lossless by default")
	}
}

func TestJitterSpreadsDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	var times []sim.Time
	rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
		times = append(times, now)
		packet.Release(p)
	})
	po := NewPort(eng, "jittery", 100*units.GigabitPerSec, 10*time.Millisecond,
		aqm.NewFIFO(1<<30), rec)
	po.SetJitter(5 * time.Millisecond)
	po.SetAllowReorder(true)
	const n = 500
	for i := 0; i < n; i++ {
		po.Send(data(1000))
	}
	eng.Run()
	if len(times) != n {
		t.Fatalf("delivered %d of %d", len(times), n)
	}
	// With reordering allowed, inter-delivery gaps must vary; all
	// deliveries must fall within [base, base+jitter) of their
	// serialization completion.
	distinct := map[sim.Time]bool{}
	for _, at := range times {
		distinct[at] = true
	}
	if len(distinct) < n/2 {
		t.Fatalf("jitter produced too few distinct delivery times: %d", len(distinct))
	}
}

// jitterSeqs runs n sequence-stamped packets through a jittery port and
// returns the sequence numbers in delivery order and the deepest event heap
// a delivery saw.
func jitterSeqs(allowReorder bool, n int) (seqs []int64, peak int) {
	eng := sim.NewEngine(7)
	rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
		seqs = append(seqs, p.Seq)
		peak = max(peak, eng.Pending())
		packet.Release(p)
	})
	po := NewPort(eng, "jittery", 100*units.GigabitPerSec, 10*time.Millisecond,
		aqm.NewFIFO(1<<30), rec)
	po.SetJitter(5 * time.Millisecond)
	po.SetAllowReorder(allowReorder)
	for i := 0; i < n; i++ {
		p := data(1000)
		p.Seq = int64(i)
		po.Send(p)
	}
	eng.Run()
	return seqs, peak
}

// TestJitterMonotonicByDefault: a port models a FIFO link, so jitter must
// not let a later packet draw a smaller delay and overtake an earlier one
// unless reordering is explicitly enabled. The clamped deliveries all ride
// the port's delay line, so the event heap stays O(1) deep with every
// packet in flight.
func TestJitterMonotonicByDefault(t *testing.T) {
	const n = 500
	seqs, peak := jitterSeqs(false, n)
	if len(seqs) != n {
		t.Fatalf("delivered %d of %d", len(seqs), n)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			t.Fatalf("default jitter reordered delivery: seq %d after seq %d",
				seqs[i], seqs[i-1])
		}
	}
	if peak > 4 {
		t.Fatalf("heap peaked at %d entries with %d packets in flight; want O(1)", peak, n)
	}
}

// TestJitterAllowReorderDoesReorder: the explicit knob must actually allow
// inversions (packets at 100 Gbps serialize ~80 ns apart; 5 ms of jitter
// makes inversions overwhelmingly likely over 500 packets). A delivery
// earlier than the delay line's tail takes the heap instead, which is what
// lets it overtake.
func TestJitterAllowReorderDoesReorder(t *testing.T) {
	seqs, peak := jitterSeqs(true, 500)
	inversions := 0
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("AllowReorder(true) produced a perfectly ordered stream")
	}
	if peak < 100 {
		t.Fatalf("heap peaked at %d entries: out-of-order deliveries did not take the heap", peak)
	}
}

// TestPortRNGSeededFromEngine: fault randomness must derive from the
// engine's seeded RNG — same seed ⇒ identical drop pattern, different
// seed ⇒ different pattern.
func TestPortRNGSeededFromEngine(t *testing.T) {
	pattern := func(seed uint64) string {
		eng := sim.NewEngine(seed)
		var got []byte
		rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
			got = append(got, byte('0'+p.Seq%10))
			packet.Release(p)
		})
		po := NewPort(eng, "lossy", 10*units.GigabitPerSec, 0, aqm.NewFIFO(1<<30), rec)
		po.SetLoss(0.2)
		for i := 0; i < 2000; i++ {
			p := data(1000)
			p.Seq = int64(i)
			po.Send(p)
		}
		eng.Run()
		return string(got)
	}
	a, b, c := pattern(42), pattern(42), pattern(43)
	if a != b {
		t.Fatal("same engine seed produced different loss patterns")
	}
	if a == c {
		t.Fatal("different engine seeds produced identical loss patterns")
	}
}

// TestGilbertElliottBurstiness: GE loss with lossBad=1 must drop packets
// in bursts whose mean length approaches 1/pBG, far above the ~1 of a
// uniform process with the same average rate, while the long-run loss rate
// matches the chain's stationary distribution.
func TestGilbertElliottBurstiness(t *testing.T) {
	eng := sim.NewEngine(3)
	delivered := map[int64]bool{}
	rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
		delivered[p.Seq] = true
		packet.Release(p)
	})
	po := NewPort(eng, "ge", 10*units.GigabitPerSec, 0, aqm.NewFIFO(1<<30), rec)
	const pGB, pBG = 0.02, 0.2
	po.SetGELoss(pGB, pBG, 0, 1)
	const n = 50000
	for i := 0; i < n; i++ {
		p := data(1000)
		p.Seq = int64(i)
		po.Send(p)
	}
	eng.Run()

	lost := int(po.LossDrops())
	wantRate := pGB / (pGB + pBG) // stationary bad fraction ≈ 9.1%
	rate := float64(lost) / n
	if rate < wantRate*0.7 || rate > wantRate*1.3 {
		t.Fatalf("GE loss rate %.4f, want ≈%.4f", rate, wantRate)
	}

	// Mean length of consecutive-loss runs.
	runs, cur := 0, 0
	sum := 0
	for i := int64(0); i < n; i++ {
		if !delivered[i] {
			cur++
			continue
		}
		if cur > 0 {
			runs++
			sum += cur
			cur = 0
		}
	}
	if cur > 0 {
		runs++
		sum += cur
	}
	if runs == 0 {
		t.Fatal("no loss bursts observed")
	}
	mean := float64(sum) / float64(runs)
	if mean < 2.5 {
		t.Fatalf("GE mean burst length %.2f, want ≥2.5 (uniform loss gives ≈1.1)", mean)
	}
}

// TestLinkFlapDrainsQueueAndRecovers: taking a port down must flush its
// queue, destroy traffic offered while down, and resume cleanly on up.
func TestLinkFlapDrainsQueueAndRecovers(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &Sink{}
	po := NewPort(eng, "flappy", units.MegabitPerSec, 0, aqm.NewFIFO(1<<30), sink)
	for i := 0; i < 100; i++ {
		po.Send(data(1000)) // ~0.8s of backlog at 1 Mbps
	}
	eng.RunFor(10 * time.Millisecond) // a couple of packets get through
	deliveredBefore := sink.Packets

	po.SetDown(true)
	if !po.Down() {
		t.Fatal("Down() should report true")
	}
	if po.Queue().Len() != 0 {
		t.Fatalf("queue not drained on carrier loss: %d packets left", po.Queue().Len())
	}
	if po.DownDrops() == 0 {
		t.Fatal("queue drain dropped nothing")
	}
	// Let the packet that was mid-serialization at carrier loss finish; it
	// is destroyed too (the link was down when its last bit left).
	eng.RunFor(20 * time.Millisecond)
	drainDrops := po.DownDrops()
	po.Send(data(1000)) // offered while down
	eng.RunFor(80 * time.Millisecond)
	if sink.Packets != deliveredBefore {
		t.Fatalf("packets delivered while down: %d > %d", sink.Packets, deliveredBefore)
	}
	if po.DownDrops() != drainDrops+1 {
		t.Fatalf("send while down not dropped: %d vs %d", po.DownDrops(), drainDrops+1)
	}

	po.SetDown(false)
	for i := 0; i < 10; i++ {
		po.Send(data(1000))
	}
	eng.Run()
	if sink.Packets < deliveredBefore+10 {
		t.Fatalf("port did not recover after flap: %d delivered", sink.Packets)
	}
}

// TestBandwidthStepChangesServiceRate: after SetRate the serialization
// time of subsequent packets must reflect the new rate.
func TestBandwidthStepChangesServiceRate(t *testing.T) {
	eng := sim.NewEngine(1)
	var times []sim.Time
	rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
		times = append(times, now)
		packet.Release(p)
	})
	po := NewPort(eng, "step", 8*units.MegabitPerSec, 0, aqm.NewFIFO(1<<30), rec)
	// 1000-byte packets at 8 Mbps serialize in 1 ms.
	for i := 0; i < 4; i++ {
		po.Send(data(1000))
	}
	eng.Run()
	po.SetRate(800 * units.KilobitPerSec) // 10 ms per packet
	for i := 0; i < 4; i++ {
		po.Send(data(1000))
	}
	eng.Run()
	if len(times) != 8 {
		t.Fatalf("delivered %d of 8", len(times))
	}
	fast := (times[3] - times[0]).Std()
	slow := (times[7] - times[4]).Std()
	if slow < 8*fast {
		t.Fatalf("rate step barely changed pacing: fast window %v, slow window %v", fast, slow)
	}
	po.SetRate(0) // ignored: rate must stay positive
	if po.Rate() != 800*units.KilobitPerSec {
		t.Fatal("SetRate(0) should be ignored")
	}
}

// TestDelayStepShiftsDelivery: SetDelay must change the propagation delay
// of subsequent deliveries, and shrinking it must not reorder in-flight
// packets in the default (monotonic) mode.
func TestDelayStepShiftsDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	var seqs []int64
	var times []sim.Time
	rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
		seqs = append(seqs, p.Seq)
		times = append(times, now)
		packet.Release(p)
	})
	po := NewPort(eng, "rtts", 10*units.GigabitPerSec, 10*time.Millisecond,
		aqm.NewFIFO(1<<30), rec)
	p0 := data(1000)
	p0.Seq = 0
	po.Send(p0)
	// While packet 0 is in flight with a 10 ms delay, shrink the delay to
	// zero and send packet 1: it must not overtake packet 0.
	eng.RunFor(time.Millisecond)
	po.SetDelay(0)
	if po.Delay() != 0 {
		t.Fatal("Delay() should report the stepped value")
	}
	p1 := data(1000)
	p1.Seq = 1
	po.Send(p1)
	eng.Run()
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 1 {
		t.Fatalf("delay shrink reordered delivery: %v", seqs)
	}
	if times[1] < times[0] {
		t.Fatalf("non-monotonic delivery times: %v", times)
	}
}

// TestDelayShrinkBehindInFlightBurst: shrinking the propagation delay
// while a whole burst rides the port's delay line must not let the packets
// sent after the step overtake it: they queue behind the line's tail.
func TestDelayShrinkBehindInFlightBurst(t *testing.T) {
	eng := sim.NewEngine(1)
	var seqs []int64
	var times []sim.Time
	rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
		seqs = append(seqs, p.Seq)
		times = append(times, now)
		packet.Release(p)
	})
	po := NewPort(eng, "rtts", 100*units.GigabitPerSec, 10*time.Millisecond,
		aqm.NewFIFO(1<<30), rec)
	send := func(from int) {
		for i := from; i < from+200; i++ {
			p := data(1000)
			p.Seq = int64(i)
			po.Send(p)
		}
	}
	send(0)
	eng.RunFor(time.Millisecond) // the burst is serialized and propagating
	if got := po.prop.Len(); got != 200 {
		t.Fatalf("delay line holds %d packets mid-flight, want 200", got)
	}
	po.SetDelay(time.Microsecond)
	send(200)
	eng.Run()
	if len(seqs) != 400 {
		t.Fatalf("delivered %d of 400", len(seqs))
	}
	for i, s := range seqs {
		if s != int64(i) {
			t.Fatalf("delivery %d carried seq %d: the delay shrink overtook in-flight packets", i, s)
		}
	}
	if times[200] < times[199] {
		t.Fatalf("post-step packet delivered at %v, before the last in-flight one at %v",
			times[200], times[199])
	}
}

func TestJitterClamping(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &Sink{}
	po := NewPort(eng, "p", units.GigabitPerSec, time.Millisecond, nil, sink)
	po.SetJitter(-time.Second) // clamps to 0
	po.Send(data(100))
	eng.Run()
	if sink.Packets != 1 {
		t.Fatal("negative jitter should clamp to 0 and not break delivery")
	}
}
