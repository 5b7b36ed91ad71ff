// Package netem models the forwarding plane: ports that serialize packets
// onto links at a configured rate, drain a pluggable AQM queue, and deliver
// after a propagation delay. Chaining ports builds arbitrary paths; the
// dumbbell of the paper is four chained ports per direction (client NIC →
// router1 bottleneck port → router2 port → server NIC).
package netem

import (
	"fmt"
	"time"

	"repro/internal/aqm"
	"repro/internal/audit"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// testHookSkipDownDropAccounting deliberately omits the downDrops increment
// when a flap drains the egress queue. It exists only so the audit test
// suite can prove the invariant auditor catches a real accounting bug (a
// drop that is destroyed but never counted); it is never set in production.
var testHookSkipDownDropAccounting bool

// Receiver consumes packets at the end of a link: another Port, or a
// protocol endpoint.
type Receiver interface {
	Receive(now sim.Time, p *packet.Packet)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(now sim.Time, p *packet.Packet)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(now sim.Time, p *packet.Packet) { f(now, p) }

// Port is one egress interface: a queue drained at the link rate, with each
// transmitted packet delivered to dst after the propagation delay. Port
// itself implements Receiver so ports chain into paths.
type Port struct {
	Name string

	eng   *sim.Engine
	rate  units.Bandwidth
	delay time.Duration
	queue aqm.Queue
	dst   Receiver
	busy  bool

	// Handler adapters for the two per-packet events (serialization done,
	// propagation delivery). Stable addresses inside the Port let the
	// engine's pooled-event path run without a closure or Event allocation
	// per packet.
	txDoneH  portTxDone
	deliverH portDeliver

	// prop is the link's delay line: packets in propagation queue here in
	// delivery order, holding one engine heap entry between them. A
	// delivery that would overtake the line's tail (jitter or a shrunk
	// delay on a reordering link) is scheduled as its own event instead.
	prop sim.Line

	// Fault injection (the paper's "network anomalies" future work):
	// lossRate drops transmitted packets uniformly at random; ge overlays a
	// Gilbert–Elliott bursty-loss chain; jitter adds a uniform extra delay
	// in [0, jitter) per packet; down models a carrier loss (link flap).
	// The RNG is derived from the engine's seeded RNG on first use, so
	// fault behaviour is bit-reproducible per engine seed.
	lossRate float64
	jitter   time.Duration
	rng      *sim.RNG
	ge       geChain
	down     bool

	// allowReorder lets jittered deliveries overtake each other; by default
	// delivery times are clamped monotonic per port (a link does not
	// reorder frames).
	allowReorder  bool
	lastDeliverAt sim.Time

	txPackets uint64
	txBytes   units.ByteSize
	lossDrops uint64
	downDrops uint64

	// Queueing-delay telemetry (sojourn from enqueue to serialization
	// start) — the direct evidence of bufferbloat the paper reasons about.
	sojournSum sim.Time
	sojournMax sim.Time

	// Occupancy high-watermark, maintained unconditionally: two compares
	// per enqueue, no events, no allocation — cheap enough to keep on so
	// every Result reports its bottleneck's peak standing queue.
	peakQBytes units.ByteSize
	peakQPkts  int

	// trc, when non-nil, is this port's telemetry ring (picked up from the
	// engine at construction, like the auditor). Enqueue/dequeue/drop/fault
	// events are gated on one nil check each.
	trc *telemetry.PortTracer

	// Invariant auditing (nil = disabled; picked up from the engine at
	// construction). The aud* counters are the auditor's independent view of
	// the port: at end of run they must reconcile with the production
	// counters (queue stats, lossDrops, downDrops) — an uncounted drop or a
	// leaked packet breaks the equation. Each hot-path touch is gated on one
	// nil check so a disabled port pays a branch, not an allocation.
	aud            *audit.Auditor
	audOffered     uint64 // packets entering Send
	audQueueOps    uint64 // queue operations since the last deep SelfCheck
	audQueueOffer  uint64 // Enqueue calls on the queue
	audInFlight    uint64 // packets serializing or propagating
	audDelivered   uint64 // packets handed to dst (or consumed at a nil dst)
	audSelfChecker aqm.SelfChecker
}

// SojournStats summarizes the queueing delay seen by transmitted packets.
type SojournStats struct {
	Mean time.Duration
	Max  time.Duration
}

// Sojourn returns the mean and maximum queueing delay so far.
func (po *Port) Sojourn() SojournStats {
	if po.txPackets == 0 {
		return SojournStats{}
	}
	return SojournStats{
		Mean: (po.sojournSum / sim.Time(po.txPackets)).Std(),
		Max:  po.sojournMax.Std(),
	}
}

// NewPort builds an egress port transmitting at rate with propagation delay
// toward dst, buffering in queue.
func NewPort(eng *sim.Engine, name string, rate units.Bandwidth, delay time.Duration, queue aqm.Queue, dst Receiver) *Port {
	if queue == nil {
		queue = aqm.NewFIFO(1 << 40) // effectively unbuffered-loss-free
	}
	po := &Port{Name: name, eng: eng, rate: rate, delay: delay, queue: queue, dst: dst}
	po.txDoneH.po = po
	po.deliverH.po = po
	po.prop.Init(eng, &po.deliverH)
	if a := eng.Auditor(); a != nil {
		po.aud = a
		po.audSelfChecker, _ = queue.(aqm.SelfChecker)
		a.RegisterNet(po.auditSample)
		a.OnFinish("netem", "port-conservation", po.auditFinish)
	}
	if t := eng.Tracer(); t != nil {
		po.trc = t.Port(name)
		// The discipline shares the port's ring so its drop law's verdicts
		// (RED early vs forced, CoDel control law, fat-flow eviction) land
		// in the same timeline as the port's enqueues and dequeues.
		if ts, ok := queue.(aqm.TraceSink); ok {
			ts.SetTrace(po.trc)
		}
	}
	return po
}

// auditSample reports this port's contribution to the global conservation
// ledger using its production counters: destroyed = AQM drops + injected
// loss + flap destruction; resident = queued + serializing/propagating.
func (po *Port) auditSample() audit.NetSample {
	qs := po.queue.Stats()
	return audit.NetSample{
		Name:     po.Name,
		Dropped:  int64(qs.Dropped + po.lossDrops + po.downDrops),
		Resident: int64(uint64(po.queue.Len()) + po.audInFlight),
	}
}

// auditFinish settles the per-port books at end of run: every packet
// offered to the port must be accounted by exactly one production drop
// counter, still be resident, or have been handed to the next element.
// Because the drop side is the production counters, a skipped increment
// (for example a flap drain that destroys a packet without counting it)
// shows up as an imbalance here.
func (po *Port) auditFinish() error {
	qs := po.queue.Stats()
	accounted := qs.Dropped + po.lossDrops + po.downDrops +
		uint64(po.queue.Len()) + po.audInFlight + po.audDelivered
	if po.audOffered != accounted {
		return fmt.Errorf(
			"port %s: offered=%d != aqm-dropped=%d + loss-dropped=%d + flap-dropped=%d + queued=%d + in-flight=%d + delivered=%d (off by %d)",
			po.Name, po.audOffered, qs.Dropped, po.lossDrops, po.downDrops,
			po.queue.Len(), po.audInFlight, po.audDelivered,
			int64(po.audOffered)-int64(accounted))
	}
	if po.audSelfChecker != nil {
		if err := po.audSelfChecker.SelfCheck(); err != nil {
			return fmt.Errorf("port %s: %w", po.Name, err)
		}
	}
	return nil
}

// auditSelfCheckEvery is how many queue operations pass between O(queue)
// deep SelfCheck walks on an audited port. The cheap per-op checks
// (occupancy bounds, counter balance) still run on every operation.
const auditSelfCheckEvery = 512

// auditQueueOp validates the queue after one Enqueue/Dequeue on an audited
// port: occupancy within [0, capacity], and the universal discipline
// balance offered = dequeued + dropped + queued (which holds for all four
// AQMs despite their differing Enqueued semantics). Every
// auditSelfCheckEvery ops it also runs the discipline's own deep walk.
func (po *Port) auditQueueOp() {
	q := po.queue
	if b := q.Bytes(); b < 0 || b > q.Capacity() {
		po.aud.Failf("aqm", "occupancy-bounds",
			"port %s: queue %s holds %d bytes, capacity %d", po.Name, q.Name(), b, q.Capacity())
	}
	if n := q.Len(); n < 0 {
		po.aud.Failf("aqm", "occupancy-bounds",
			"port %s: queue %s reports negative length %d", po.Name, q.Name(), n)
	}
	qs := q.Stats()
	if acc := qs.Dequeued + qs.Dropped + uint64(q.Len()); po.audQueueOffer != acc {
		po.aud.Failf("aqm", "counter-balance",
			"port %s: queue %s offered=%d != dequeued=%d + dropped=%d + queued=%d",
			po.Name, q.Name(), po.audQueueOffer, qs.Dequeued, qs.Dropped, q.Len())
	}
	po.audQueueOps++
	if po.audSelfChecker != nil && po.audQueueOps%auditSelfCheckEvery == 0 {
		if err := po.audSelfChecker.SelfCheck(); err != nil {
			po.aud.Failf("aqm", "self-check", "port %s: %v", po.Name, err)
		}
	}
}

// Queue exposes the port's queue (for telemetry and tests).
func (po *Port) Queue() aqm.Queue { return po.queue }

// PeakQueue returns the highest queue occupancy (bytes, packets) the port
// has seen. Maintained unconditionally, so it is available whether or not
// tracing or sampling is enabled.
func (po *Port) PeakQueue() (units.ByteSize, int) { return po.peakQBytes, po.peakQPkts }

// Rate returns the configured link rate.
func (po *Port) Rate() units.Bandwidth { return po.rate }

// TxPackets returns how many packets have been put on the wire.
func (po *Port) TxPackets() uint64 { return po.txPackets }

// TxBytes returns how many bytes have been put on the wire.
func (po *Port) TxBytes() units.ByteSize { return po.txBytes }

// SetDst rewires the port's destination (used by topology builders).
func (po *Port) SetDst(dst Receiver) { po.dst = dst }

// ensureRNG lazily derives the port's private random stream from the
// engine's seeded RNG. Deriving (rather than sharing) keeps per-packet
// draws from perturbing other consumers of the engine RNG, while still
// making every fault decision a pure function of the engine seed and the
// deterministic construction order.
func (po *Port) ensureRNG() {
	if po.rng == nil {
		po.rng = sim.NewRNG(po.eng.RNG().Uint64())
	}
}

// SetLoss makes the port drop transmitted packets uniformly at random with
// the given probability — corruption/anomaly injection on the wire, after
// the queue (so AQM statistics stay clean).
func (po *Port) SetLoss(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	po.lossRate = rate
	po.ensureRNG()
}

// geChain is a two-state Gilbert–Elliott loss process: per transmitted
// packet the chain drops with the current state's loss probability, then
// transitions good→bad with pGB or bad→good with pBG. Mean burst length is
// 1/pBG packets; the stationary bad fraction is pGB/(pGB+pBG).
type geChain struct {
	enabled                bool
	bad                    bool
	pGB, pBG, lossG, lossB float64
}

// step advances the chain one packet and reports whether to drop it.
func (g *geChain) step(rng *sim.RNG) bool {
	p := g.lossG
	if g.bad {
		p = g.lossB
	}
	drop := p > 0 && rng.Float64() < p
	if g.bad {
		if rng.Float64() < g.pBG {
			g.bad = false
		}
	} else if rng.Float64() < g.pGB {
		g.bad = true
	}
	return drop
}

// SetGELoss arms a Gilbert–Elliott bursty-loss chain on the port (the
// fault-injection layer's burst-loss model). Probabilities are clamped to
// [0, 1]; all-zero loss probabilities disable the chain. The chain starts
// in the good state and evolves once per transmitted packet on the port's
// deterministic RNG, independently of the uniform SetLoss rate.
func (po *Port) SetGELoss(pGB, pBG, lossGood, lossBad float64) {
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	po.ge = geChain{
		pGB:   clamp(pGB),
		pBG:   clamp(pBG),
		lossG: clamp(lossGood),
		lossB: clamp(lossBad),
	}
	po.ge.enabled = po.ge.lossG > 0 || po.ge.lossB > 0
	if po.ge.enabled {
		po.ensureRNG()
	}
}

// SetJitter adds a uniform random extra propagation delay in [0, d) per
// packet. By default delivery remains in-order (delivery times are clamped
// monotonic per port); call SetAllowReorder(true) to let late draws
// overtake earlier packets.
func (po *Port) SetJitter(d time.Duration) {
	if d < 0 {
		d = 0
	}
	po.jitter = d
	po.ensureRNG()
}

// SetAllowReorder controls whether jitter (or a shrinking propagation
// delay) may reorder deliveries. The default is false: a port models a
// FIFO link, so delivery times are clamped to be non-decreasing.
func (po *Port) SetAllowReorder(allow bool) { po.allowReorder = allow }

// SetRate changes the link rate mid-run (a fault-injection bandwidth
// step). The packet currently being serialized finishes at the old rate;
// subsequent packets use the new one. Non-positive rates are ignored —
// model an outage with SetDown instead.
func (po *Port) SetRate(rate units.Bandwidth) {
	if rate > 0 {
		po.rate = rate
		if po.trc != nil {
			po.trc.Fault(int64(po.eng.Now()), telemetry.FaultRate, int64(rate), 0)
		}
	}
}

// Delay returns the configured propagation delay.
func (po *Port) Delay() time.Duration { return po.delay }

// SetDelay changes the propagation delay mid-run (a fault-injection RTT
// step). Negative delays clamp to zero. Unless SetAllowReorder(true) is
// set, a shrinking delay cannot reorder packets already in flight: new
// deliveries are clamped behind the latest scheduled delivery.
func (po *Port) SetDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	po.delay = d
	if po.trc != nil {
		po.trc.Fault(int64(po.eng.Now()), telemetry.FaultDelay, d.Nanoseconds(), 0)
	}
}

// SetDown flaps the link carrier. Taking the port down drains and drops
// the entire egress queue (the router flushes buffers on carrier loss) and
// destroys every packet offered or serialized while down; bringing it back
// up restarts the transmitter. Packets already past serialization (in
// propagation) still arrive — they are on the wire ahead of the failure.
func (po *Port) SetDown(down bool) {
	if po.down == down {
		return
	}
	po.down = down
	if down {
		now := po.eng.Now()
		var drained int64
		for {
			p := po.queue.Dequeue(now)
			if p == nil {
				break
			}
			if !testHookSkipDownDropAccounting {
				po.downDrops++
			}
			drained++
			if po.trc != nil {
				po.trc.Drop(int64(now), uint32(p.Flow), telemetry.DropLinkDown,
					int64(p.Size), int64(po.queue.Bytes()))
			}
			packet.Release(p)
		}
		if po.trc != nil {
			po.trc.Fault(int64(now), telemetry.FaultDown, 0, drained)
		}
		if po.aud != nil {
			po.auditQueueOp()
		}
		return
	}
	if po.trc != nil {
		po.trc.Fault(int64(po.eng.Now()), telemetry.FaultUp, 0, 0)
	}
	if !po.busy {
		po.transmitNext()
	}
}

// Down reports whether the link is currently flapped down.
func (po *Port) Down() bool { return po.down }

// LossDrops returns how many packets were destroyed by injected loss
// (uniform and Gilbert–Elliott).
func (po *Port) LossDrops() uint64 { return po.lossDrops }

// DownDrops returns how many packets were destroyed by link flaps.
func (po *Port) DownDrops() uint64 { return po.downDrops }

// Receive implements Receiver: forward the packet out this port.
func (po *Port) Receive(now sim.Time, p *packet.Packet) { po.Send(p) }

// Send offers a packet to the egress queue and kicks the transmitter.
func (po *Port) Send(p *packet.Packet) {
	if po.aud != nil {
		po.audOffered++
	}
	if po.down {
		po.downDrops++
		if po.trc != nil {
			po.trc.Drop(int64(po.eng.Now()), uint32(p.Flow), telemetry.DropLinkDown,
				int64(p.Size), int64(po.queue.Bytes()))
		}
		packet.Release(p)
		return
	}
	now := po.eng.Now()
	if po.aud != nil {
		po.audQueueOffer++
	}
	if !po.queue.Enqueue(now, p) {
		if po.aud != nil {
			po.auditQueueOp()
		}
		return // queue dropped (and released) it; the discipline traced it
	}
	if qb := po.queue.Bytes(); qb > po.peakQBytes {
		po.peakQBytes = qb
	}
	if n := po.queue.Len(); n > po.peakQPkts {
		po.peakQPkts = n
	}
	if po.trc != nil {
		po.trc.Enqueue(int64(now), uint32(p.Flow), int64(po.queue.Bytes()), int64(po.queue.Len()))
	}
	if po.aud != nil {
		po.auditQueueOp()
	}
	if !po.busy {
		po.transmitNext()
	}
}

// transmitNext pulls the next packet from the queue and models its
// serialization time; delivery happens a propagation delay after the last
// bit leaves.
func (po *Port) transmitNext() {
	now := po.eng.Now()
	p := po.queue.Dequeue(now)
	if po.aud != nil {
		po.auditQueueOp()
		if p != nil {
			po.audInFlight++
		}
	}
	if p == nil {
		po.busy = false
		return
	}
	po.busy = true
	// Every packet passes Enqueue before reaching here, so EnqueueAt is
	// always stamped (possibly 0 at simulation start).
	sojourn := now - p.EnqueueAt
	if sojourn > 0 {
		po.sojournSum += sojourn
		if sojourn > po.sojournMax {
			po.sojournMax = sojourn
		}
	}
	if po.trc != nil {
		po.trc.Dequeue(int64(now), uint32(p.Flow), int64(po.queue.Bytes()), int64(sojourn))
	}
	txTime := units.TransmissionTime(p.Size, po.rate)
	po.eng.ScheduleHandler(txTime, &po.txDoneH, p)
}

// portTxDone fires when the last bit of a packet leaves the serializer.
type portTxDone struct{ po *Port }

// OnEvent implements sim.Handler; arg is the transmitted *packet.Packet.
func (h *portTxDone) OnEvent(arg any) {
	po := h.po
	p := arg.(*packet.Packet)
	po.txPackets++
	po.txBytes += p.Size
	switch {
	case po.dst == nil:
		// No next element: the port itself is the packet's terminus, so it
		// reports the consumption to keep the global ledger balanced.
		if po.aud != nil {
			po.audInFlight--
			po.audDelivered++
			po.aud.PacketConsumed()
		}
		packet.Release(p)
	case po.down:
		// Carrier dropped while the packet was serializing.
		po.downDrops++
		if po.aud != nil {
			po.audInFlight--
		}
		if po.trc != nil {
			po.trc.Drop(int64(po.eng.Now()), uint32(p.Flow), telemetry.DropLinkDown,
				int64(p.Size), int64(po.queue.Bytes()))
		}
		packet.Release(p)
	case po.ge.enabled && po.ge.step(po.rng):
		po.lossDrops++
		if po.aud != nil {
			po.audInFlight--
		}
		if po.trc != nil {
			po.trc.Drop(int64(po.eng.Now()), uint32(p.Flow), telemetry.DropLoss,
				int64(p.Size), int64(po.queue.Bytes()))
		}
		packet.Release(p)
	case po.lossRate > 0 && po.rng.Float64() < po.lossRate:
		po.lossDrops++
		if po.aud != nil {
			po.audInFlight--
		}
		if po.trc != nil {
			po.trc.Drop(int64(po.eng.Now()), uint32(p.Flow), telemetry.DropLoss,
				int64(p.Size), int64(po.queue.Bytes()))
		}
		packet.Release(p)
	default:
		delay := po.delay
		if po.jitter > 0 {
			delay += time.Duration(po.rng.Jitter(float64(po.jitter)))
		}
		now := po.eng.Now()
		at := now + sim.Duration(delay)
		if !po.allowReorder && at < po.lastDeliverAt {
			at = po.lastDeliverAt // FIFO link: never overtake an earlier packet
		}
		po.lastDeliverAt = at
		if at > now {
			if !po.prop.PushAt(at, p) {
				po.eng.ScheduleHandlerAt(at, &po.deliverH, p)
			}
		} else {
			if po.aud != nil {
				po.audInFlight--
				po.audDelivered++
			}
			po.dst.Receive(now, p)
		}
	}
	po.transmitNext()
}

// portDeliver fires when a packet's propagation delay elapses.
type portDeliver struct{ po *Port }

// OnEvent implements sim.Handler; arg is the delivered *packet.Packet.
func (h *portDeliver) OnEvent(arg any) {
	po := h.po
	p := arg.(*packet.Packet)
	if po.aud != nil {
		po.audInFlight--
		po.audDelivered++
	}
	po.dst.Receive(po.eng.Now(), p)
}

// Path is a convenience wrapper: a sequence of ports ending at an endpoint.
type Path struct {
	first Receiver
}

// NewPath chains hops so that packets injected at the head traverse each
// port in order. The last hop must already point at the final endpoint.
func NewPath(hops ...*Port) *Path {
	if len(hops) == 0 {
		return &Path{}
	}
	for i := 0; i < len(hops)-1; i++ {
		hops[i].SetDst(hops[i+1])
	}
	return &Path{first: hops[0]}
}

// Inject starts a packet down the path.
func (pa *Path) Inject(now sim.Time, p *packet.Packet) {
	if pa.first == nil {
		packet.Release(p)
		return
	}
	pa.first.Receive(now, p)
}

// Sink counts and releases everything it receives; useful in tests and as a
// drop target. When Auditor is set, each received packet is reported as
// terminally consumed for the conservation ledger.
type Sink struct {
	Packets uint64
	Bytes   units.ByteSize
	LastAt  sim.Time
	Auditor *audit.Auditor
}

// Receive implements Receiver.
func (s *Sink) Receive(now sim.Time, p *packet.Packet) {
	s.Packets++
	s.Bytes += p.Size
	s.LastAt = now
	if s.Auditor != nil {
		s.Auditor.PacketConsumed()
	}
	packet.Release(p)
}
