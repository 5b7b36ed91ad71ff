package tcp

import (
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// stubCC is a fixed-window controller with Reno-ish halving, used to test
// the connection machinery in isolation from the real algorithms.
type stubCC struct {
	fixedCwnd  int64
	congEvents int
	rtoEvents  int
	acks       int
	lastSample AckSample
}

func (s *stubCC) Name() string { return "stub" }
func (s *stubCC) Init(c *Conn) {
	if s.fixedCwnd > 0 {
		c.SetCwnd(s.fixedCwnd)
	}
}
func (s *stubCC) OnAck(c *Conn, a AckSample) {
	s.acks++
	s.lastSample = a
	if s.fixedCwnd > 0 {
		c.SetCwnd(s.fixedCwnd)
	}
}
func (s *stubCC) OnCongestionEvent(c *Conn) {
	s.congEvents++
	if s.fixedCwnd == 0 {
		c.SetCwnd(c.Cwnd() / 2)
	}
}
func (s *stubCC) OnRTO(c *Conn) {
	s.rtoEvents++
	c.SetCwnd(c.MSS())
}
func (s *stubCC) OnPacketSent(c *Conn, bytes int64) {}

// testNet wires one sender and receiver through a bottleneck port and a
// clean return path.
type testNet struct {
	eng  *sim.Engine
	conn *Conn
	rcv  *Receiver
	bott *netem.Port
}

func newTestNet(t testing.TB, rate units.Bandwidth, owd time.Duration, queue aqm.Queue, cc CongestionControl, cfg Config) *testNet {
	t.Helper()
	eng := sim.NewEngine(1)
	n := &testNet{eng: eng}

	// Reverse path: ample bandwidth, same propagation delay.
	back := netem.NewPort(eng, "back", 100*units.GigabitPerSec, owd, nil, nil)
	// Forward path: the bottleneck.
	n.bott = netem.NewPort(eng, "bottleneck", rate, owd, queue, nil)

	n.conn = NewConn(eng, 1, cfg, cc, func(p *packet.Packet) { n.bott.Send(p) })
	n.rcv = NewReceiver(eng, 1, cfg.Header, func(p *packet.Packet) { back.Send(p) })
	n.bott.SetDst(n.rcv)
	back.SetDst(n.conn)
	return n
}

func TestSingleFlowTransfersAllBytes(t *testing.T) {
	cc := &stubCC{fixedCwnd: 64 * 8900}
	n := newTestNet(t, 100*units.MegabitPerSec, 5*time.Millisecond,
		aqm.NewFIFO(1<<30), cc, Config{LimitBytes: 1_000_000})
	doneAt := sim.Time(0)
	n.conn.OnDone(func(c *Conn) { doneAt = n.eng.Now() })
	n.conn.Start()
	n.eng.RunFor(10 * time.Second)
	if got := n.rcv.Goodput(); got != 1_000_000 {
		t.Fatalf("goodput = %d, want 1000000", got)
	}
	if n.conn.Stats().BytesAcked != 1_000_000 {
		t.Fatalf("acked = %d", n.conn.Stats().BytesAcked)
	}
	if doneAt == 0 {
		t.Fatal("OnDone never fired")
	}
	if n.conn.Stats().Retransmits != 0 {
		t.Fatalf("unexpected retransmits on a clean path: %d", n.conn.Stats().Retransmits)
	}
}

func TestThroughputMatchesWindowOverRTT(t *testing.T) {
	// With a fixed window W and no losses, rate ≈ W/RTT (window-limited).
	w := int64(16 * 8900)
	cc := &stubCC{fixedCwnd: w}
	n := newTestNet(t, 10*units.GigabitPerSec, 31*time.Millisecond,
		aqm.NewFIFO(1<<30), cc, Config{})
	n.conn.Start()
	dur := 10 * time.Second
	n.eng.RunFor(dur)
	rtt := 62 * time.Millisecond
	wantBytes := float64(w) * dur.Seconds() / rtt.Seconds()
	got := float64(n.conn.Stats().BytesAcked)
	if got < 0.85*wantBytes || got > 1.1*wantBytes {
		t.Fatalf("window-limited goodput = %.0f, want ≈ %.0f", got, wantBytes)
	}
}

func TestSingleFlowFillsBottleneck(t *testing.T) {
	// Big window: throughput should approach the bottleneck rate.
	cc := &stubCC{fixedCwnd: 4 * 775_000} // 4 BDP at 100 Mbps / 62 ms
	n := newTestNet(t, 100*units.MegabitPerSec, 31*time.Millisecond,
		aqm.NewFIFO(1<<30), cc, Config{})
	n.conn.Start()
	dur := 20 * time.Second
	n.eng.RunFor(dur)
	rate := float64(n.conn.Stats().BytesAcked) * 8 / dur.Seconds()
	if rate < 0.90*100e6 {
		t.Fatalf("utilization too low: %.1f Mbps", rate/1e6)
	}
	if rate > 100e6*1.01 {
		t.Fatalf("goodput exceeds link rate: %.1f Mbps", rate/1e6)
	}
}

func TestLossRecoveryRetransmits(t *testing.T) {
	// A tiny queue forces drops; the transfer must still complete.
	cc := &stubCC{fixedCwnd: 64 * 8900}
	n := newTestNet(t, 50*units.MegabitPerSec, 5*time.Millisecond,
		aqm.NewFIFO(10*8960), cc, Config{LimitBytes: 3_000_000})
	done := false
	n.conn.OnDone(func(c *Conn) { done = true })
	n.conn.Start()
	n.eng.RunFor(30 * time.Second)
	if !done {
		t.Fatalf("transfer incomplete: acked=%d", n.conn.Stats().BytesAcked)
	}
	st := n.conn.Stats()
	if st.Retransmits == 0 {
		t.Fatal("expected retransmissions through the tiny queue")
	}
	if cc.congEvents == 0 {
		t.Fatal("expected congestion events")
	}
	if n.rcv.Goodput() != 3_000_000 {
		t.Fatalf("receiver got %d contiguous bytes", n.rcv.Goodput())
	}
}

func TestRTTEstimator(t *testing.T) {
	r := newRTTEstimator()
	if r.rto != initialRTO {
		t.Fatalf("initial RTO = %v", r.rto)
	}
	r.update(100 * time.Millisecond)
	if r.srtt != 100*time.Millisecond {
		t.Fatalf("first sample srtt = %v", r.srtt)
	}
	if r.rto != 300*time.Millisecond {
		t.Fatalf("rto after first sample = %v, want srtt+4*var = 300ms", r.rto)
	}
	for i := 0; i < 100; i++ {
		r.update(100 * time.Millisecond)
	}
	if r.rttvar > 5*time.Millisecond {
		t.Fatalf("rttvar should converge toward 0 on constant samples: %v", r.rttvar)
	}
	if r.rto < minRTO {
		t.Fatalf("rto below floor: %v", r.rto)
	}
	if r.minRTT != 100*time.Millisecond {
		t.Fatalf("minRTT = %v", r.minRTT)
	}
	r.update(80 * time.Millisecond)
	if r.minRTT != 80*time.Millisecond {
		t.Fatalf("minRTT should track new minimum: %v", r.minRTT)
	}
	r.update(0) // ignored
	r.update(-time.Second)
	if r.minRTT != 80*time.Millisecond {
		t.Fatal("non-positive samples must be ignored")
	}
}

func TestMeasuredRTTMatchesPath(t *testing.T) {
	cc := &stubCC{fixedCwnd: 4 * 8900}
	n := newTestNet(t, 1*units.GigabitPerSec, 31*time.Millisecond,
		aqm.NewFIFO(1<<30), cc, Config{})
	n.conn.Start()
	n.eng.RunFor(2 * time.Second)
	srtt := n.conn.SRTT()
	if srtt < 62*time.Millisecond || srtt > 64*time.Millisecond {
		t.Fatalf("srtt = %v, want ≈62ms", srtt)
	}
	if n.conn.MinRTT() < 62*time.Millisecond {
		t.Fatalf("minRTT below propagation: %v", n.conn.MinRTT())
	}
}

func TestRTOFiresWhenPathBlackholes(t *testing.T) {
	// Receiver never sees packets (capacity-zero queue drops all): the
	// sender must hit RTO and back off, not spin.
	eng := sim.NewEngine(1)
	cc := &stubCC{fixedCwnd: 8 * 8900}
	conn := NewConn(eng, 1, Config{}, cc, func(p *packet.Packet) { packet.Release(p) })
	conn.Start()
	eng.RunFor(10 * time.Second)
	if cc.rtoEvents == 0 {
		t.Fatal("RTO never fired on a blackholed path")
	}
	st := conn.Stats()
	if st.RTOs == 0 || st.Retransmits == 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Exponential backoff: far fewer RTOs than 10s / 200ms.
	if st.RTOs > 10 {
		t.Fatalf("RTO storm: %d fires in 10s, backoff broken", st.RTOs)
	}
}

func TestPacingSmoothsTransmissions(t *testing.T) {
	// With pacing at 10 Mbps and a huge window, send rate must be ~10 Mbps
	// even though the link is 1 Gbps.
	cc := &stubCC{fixedCwnd: 1 << 30}
	n := newTestNet(t, 1*units.GigabitPerSec, 5*time.Millisecond,
		aqm.NewFIFO(1<<30), cc, Config{})
	n.conn.SetPacingRate(10 * units.MegabitPerSec)
	// Keep the stub from disturbing pacing.
	n.conn.Start()
	dur := 5 * time.Second
	n.eng.RunFor(dur)
	rate := float64(n.conn.Stats().BytesSent) * 8 / dur.Seconds()
	if rate < 8e6 || rate > 12e6 {
		t.Fatalf("paced send rate = %.2f Mbps, want ≈10", rate/1e6)
	}
	// Queue should stay essentially empty.
	if l := n.bott.Queue().Len(); l > 2 {
		t.Fatalf("paced flow built a queue: %d", l)
	}
}

func TestDeliveryRateSampling(t *testing.T) {
	cc := &stubCC{fixedCwnd: 32 * 8900}
	n := newTestNet(t, 100*units.MegabitPerSec, 10*time.Millisecond,
		aqm.NewFIFO(1<<30), cc, Config{})
	n.conn.Start()
	n.eng.RunFor(5 * time.Second)
	rate := n.conn.Stats().DeliveryRate
	if rate <= 0 {
		t.Fatal("no delivery-rate samples")
	}
	// The sampled rate must never exceed the bottleneck (within rounding).
	if rate > 105*units.MegabitPerSec {
		t.Fatalf("delivery rate %v exceeds bottleneck 100Mbps", rate)
	}
	if rate < 80*units.MegabitPerSec {
		t.Fatalf("delivery rate %v far below bottleneck for a saturating flow", rate)
	}
}

func TestRoundCounting(t *testing.T) {
	cc := &stubCC{fixedCwnd: 16 * 8900}
	n := newTestNet(t, 1*units.GigabitPerSec, 31*time.Millisecond,
		aqm.NewFIFO(1<<30), cc, Config{})
	n.conn.Start()
	dur := 6200 * time.Millisecond // 100 RTTs
	n.eng.RunFor(dur)
	rounds := n.conn.RoundCount()
	if rounds < 80 || rounds > 120 {
		t.Fatalf("rounds = %d over 100 RTTs", rounds)
	}
}

func TestECNEchoTriggersCongestionEvent(t *testing.T) {
	// RED with ECN marks instead of dropping; the stub must see congestion
	// events without retransmissions.
	cc := &stubCC{}
	q := aqm.NewRED(40*8960, true, aqm.REDParams{Seed: 1})
	n := newTestNet(t, 50*units.MegabitPerSec, 5*time.Millisecond, q, cc,
		Config{ECN: true, InitialCwnd: 10})
	// Grow aggressively via the stub: double cwnd every ACK until congestion.
	cc.fixedCwnd = 0
	n.conn.SetCwnd(200 * 8900)
	n.conn.Start()
	n.eng.RunFor(20 * time.Second)
	if q.Stats().Marked == 0 {
		t.Skip("RED produced no marks in this configuration")
	}
	if cc.congEvents == 0 {
		t.Fatal("CE echoes produced no congestion events")
	}
}

func TestSegDeque(t *testing.T) {
	var d segDeque
	if d.front() != nil || d.pop() != nil {
		t.Fatal("empty deque should return nil")
	}
	for i := 0; i < 100; i++ {
		d.push(&seg{seq: int64(i)})
	}
	for i := 0; i < 40; i++ {
		if s := d.pop(); s.seq != int64(i) {
			t.Fatalf("pop %d got %d", i, s.seq)
		}
	}
	for i := 100; i < 200; i++ {
		d.push(&seg{seq: int64(i)})
	}
	if d.len() != 160 {
		t.Fatalf("len = %d", d.len())
	}
	for i := 0; i < d.len(); i++ {
		if d.at(i).seq != int64(40+i) {
			t.Fatalf("at(%d) = %d", i, d.at(i).seq)
		}
	}
}

func TestStopHaltsTransmission(t *testing.T) {
	cc := &stubCC{fixedCwnd: 8 * 8900}
	n := newTestNet(t, 100*units.MegabitPerSec, 5*time.Millisecond,
		aqm.NewFIFO(1<<30), cc, Config{})
	n.conn.Start()
	n.eng.RunFor(time.Second)
	sent := n.conn.Stats().BytesSent
	n.conn.Stop()
	n.eng.RunFor(time.Second)
	if got := n.conn.Stats().BytesSent; got != sent {
		t.Fatalf("sent %d bytes after Stop", got-sent)
	}
}

func TestFinalShortSegment(t *testing.T) {
	// LimitBytes not a multiple of MSS: the tail segment must be short.
	cc := &stubCC{fixedCwnd: 64 * 8900}
	n := newTestNet(t, 100*units.MegabitPerSec, time.Millisecond,
		aqm.NewFIFO(1<<30), cc, Config{LimitBytes: 8900*3 + 1234})
	n.conn.Start()
	n.eng.RunFor(5 * time.Second)
	if got := n.rcv.Goodput(); got != 8900*3+1234 {
		t.Fatalf("goodput = %d", got)
	}
}

func BenchmarkSingleFlowSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cc := &stubCC{fixedCwnd: 128 * 8900}
		n := newTestNet(b, 1*units.GigabitPerSec, 10*time.Millisecond,
			aqm.NewFIFO(1<<30), cc, Config{})
		n.conn.Start()
		n.eng.RunFor(time.Second)
	}
}

// rtoPair runs two 3 MB transfers on one engine, each on its own path
// with a delayed-ACK receiver, the second starting 7 ms after the first.
// Each ACK path's delay jumps to 1 s for 100 ms mid-transfer, so the RTO
// fires with the data delivered and its ACKs still in flight: the late
// ACKs then acknowledge segments queued for retransmission, two at a
// time. With shared set, both connections draw segments from one pool.
func rtoPair(shared bool) (stats [2]Stats, done [2]sim.Time, pool *SegPool) {
	eng := sim.NewEngine(1)
	if shared {
		pool = &SegPool{}
	}
	for k := 0; k < 2; k++ {
		k := k
		back := netem.NewPort(eng, "back", 100*units.GigabitPerSec, 5*time.Millisecond, nil, nil)
		bott := netem.NewPort(eng, "bottleneck", 50*units.MegabitPerSec, 5*time.Millisecond,
			aqm.NewFIFO(10*8960), nil)
		id := packet.FlowID(k + 1)
		conn := NewConn(eng, id, Config{LimitBytes: 3_000_000, Segs: pool},
			&stubCC{}, func(p *packet.Packet) { bott.Send(p) })
		rcv := NewDelayedAckReceiver(eng, id, 0, func(p *packet.Packet) { back.Send(p) })
		bott.SetDst(rcv)
		back.SetDst(conn)
		conn.OnDone(func(c *Conn) { stats[k], done[k] = c.Stats(), eng.Now() })
		eng.Schedule(time.Duration(7*k)*time.Millisecond, conn.Start)
		eng.Schedule(time.Duration(150+40*k)*time.Millisecond, func() { back.SetDelay(time.Second) })
		eng.Schedule(time.Duration(250+40*k)*time.Millisecond, func() { back.SetDelay(5 * time.Millisecond) })
	}
	eng.RunFor(30 * time.Second)
	return stats, done, pool
}

// TestSharedSegPoolMatchesPrivatePools: connections recycling segments
// through one pool behave exactly as with private pools, through spurious
// RTOs and retransmission.
func TestSharedSegPoolMatchesPrivatePools(t *testing.T) {
	privStats, privDone, _ := rtoPair(false)
	sharedStats, sharedDone, pool := rtoPair(true)
	for k := 0; k < 2; k++ {
		if privDone[k] == 0 {
			t.Fatalf("flow %d never completed", k+1)
		}
		if privStats[k].RTOs == 0 || privStats[k].Retransmits == 0 {
			t.Fatalf("flow %d: %d RTOs, %d retransmits; the test needs both", k+1,
				privStats[k].RTOs, privStats[k].Retransmits)
		}
		if sharedStats[k] != privStats[k] || sharedDone[k] != privDone[k] {
			t.Fatalf("flow %d: shared pool %+v done %v, private pools %+v done %v",
				k+1, sharedStats[k], sharedDone[k], privStats[k], privDone[k])
		}
	}
	if len(pool.free) == 0 {
		t.Fatal("no segment records returned to the shared pool")
	}
}

// TestFreeSegKeepsRtxQueuedSegmentsOutOfPool: a segment acknowledged while
// still referenced by the retransmission queue is not recycled, so a
// stale queue entry can never alias a segment another connection on the
// pool has since drawn.
func TestFreeSegKeepsRtxQueuedSegmentsOutOfPool(t *testing.T) {
	pool := &SegPool{}
	c := &Conn{cfg: Config{Segs: pool}}
	queued := pool.get(0, 8900)
	queued.inRtxQ = true
	acked := pool.get(8900, 8900)
	c.freeSeg(queued)
	c.freeSeg(acked)
	if len(pool.free) != 1 || pool.free[0] != acked {
		t.Fatalf("pool holds %d records; want only the one no retransmission queue references", len(pool.free))
	}
	if s := pool.get(17800, 8900); s != acked || *s != (seg{seq: 17800, len: 8900}) {
		t.Fatalf("pool handed out %+v, want the recycled record zeroed for its new range", *s)
	}
}
