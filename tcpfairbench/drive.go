package main

import (
	"fmt"
	"time"

	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/flows"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/workload"
)

// slicesPerRun is how many equal sim-time RunUntil slices a driven config
// is cut into; the event-heap depth is sampled between slices, so the
// sample points (and the peak) depend only on the config.
const slicesPerRun = 400

// ccaClock accumulates the calls into, and the time spent inside, the
// congestion controllers of one driven config.
type ccaClock struct {
	calls uint64
	ns    int64
}

func (k *ccaClock) since(t0 time.Time) {
	k.calls++
	k.ns += int64(time.Since(t0))
}

// timedCCA is a timing decorator around a tcp.CongestionControl; it
// forwards every callback unchanged, so the science cannot move.
type timedCCA struct {
	inner tcp.CongestionControl
	clk   *ccaClock
}

func (t *timedCCA) Name() string { return t.inner.Name() }

func (t *timedCCA) Init(c *tcp.Conn) {
	t0 := time.Now()
	t.inner.Init(c)
	t.clk.since(t0)
}

func (t *timedCCA) OnAck(c *tcp.Conn, s tcp.AckSample) {
	t0 := time.Now()
	t.inner.OnAck(c, s)
	t.clk.since(t0)
}

func (t *timedCCA) OnCongestionEvent(c *tcp.Conn) {
	t0 := time.Now()
	t.inner.OnCongestionEvent(c)
	t.clk.since(t0)
}

func (t *timedCCA) OnRTO(c *tcp.Conn) {
	t0 := time.Now()
	t.inner.OnRTO(c)
	t.clk.since(t0)
}

func (t *timedCCA) OnPacketSent(c *tcp.Conn, bytes int64) {
	t0 := time.Now()
	t.inner.OnPacketSent(c, bytes)
	t.clk.since(t0)
}

// driven is what the layer-by-layer drive of one config measured.
type driven struct {
	res       experiment.Result
	heapPeak  int
	build     time.Duration
	cca       ccaClock
	opened    int // connections the flows runner opened mid-run
	completed int // of which finished their transfer
}

// prepared is a config built up to its first simulated event.
type prepared struct {
	cfg   experiment.Config
	eng   *sim.Engine
	net   *topo.Network
	fr    *flows.Runner
	build time.Duration
	cca   *ccaClock
}

// prepare builds cfg the way experiment.Run does, one public call at a
// time: sim.NewEngine, the topology build, cca.New wrapped in a timing
// decorator, Network.AddFlow with the start jitter drawn in construction
// order, and the open-loop flows runner.
func prepare(cfg experiment.Config, tr *tracer, parent int) (*prepared, error) {
	cfg = cfg.Normalize()
	p := &prepared{cfg: cfg, eng: sim.NewEngine(cfg.Seed), cca: &ccaClock{}}
	sp := tr.begin("topo.Build", parent)
	t0 := time.Now()
	net, err := experiment.BuildNet(p.eng, cfg)
	p.build = time.Since(t0)
	tr.end(sp, nil)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", cfg.ID(), err)
	}
	p.net = net
	tcpCfg := tcp.Config{ECN: cfg.ECN, DelayedAck: cfg.DelayedAck}
	if !cfg.SoloFCT {
		for ci := 0; ci < net.NumClasses(); ci++ {
			name := experiment.ClassCCA(cfg, net.ClassSpec(ci), ci)
			for i := 0; i < experiment.ClassFlowCount(cfg, net.ClassSpec(ci)); i++ {
				inner, err := cca.New(name)
				if err != nil {
					return nil, err
				}
				f := net.AddFlow(ci, tcpCfg, &timedCCA{inner: inner, clk: p.cca})
				p.eng.Schedule(workload.StartJitter(p.eng.RNG(), cfg.StartSpread), f.Conn.Start)
			}
		}
	}
	if cfg.Flows != nil {
		p.fr, err = flows.NewRunner(p.eng, net, cfg.Flows, flows.Options{
			Seed: cfg.Seed, Horizon: cfg.Duration, TCP: tcpCfg,
		})
		if err != nil {
			return nil, err
		}
		p.fr.Start()
	}
	return p, nil
}

// drive runs a prepared config through Engine.RunUntil in fixed sim-time
// slices instead of experiment.Run, sampling the event-heap depth between
// slices, and assembles the result the way experiment.Run does, so the
// caller can assert the two are identical.
func drive(cfg experiment.Config, tr *tracer, parent int) (driven, error) {
	p, err := prepare(cfg, tr, parent)
	if err != nil {
		return driven{}, err
	}
	cfg, eng, net := p.cfg, p.eng, p.net
	d := driven{build: p.build}
	end := sim.Duration(cfg.Duration)
	for k := 1; k <= slicesPerRun; k++ {
		sp := tr.begin("sim.RunUntil", parent)
		ev0, calls0, ns0 := eng.Executed(), p.cca.calls, p.cca.ns
		eng.RunUntil(end * sim.Time(k) / slicesPerRun)
		pending := eng.Pending()
		if pending > d.heapPeak {
			d.heapPeak = pending
		}
		tr.end(sp, map[string]float64{
			"events":    float64(eng.Executed() - ev0),
			"pending":   float64(pending),
			"cca_calls": float64(p.cca.calls - calls0),
			"cca_ns":    float64(p.cca.ns - ns0),
		})
	}
	d.cca = *p.cca

	res := experiment.Result{
		Flows:      len(net.Flows()),
		SimSeconds: cfg.Duration.Seconds(),
		Events:     eng.Executed(),
	}
	for s := 0; s < 2 && s < net.NumClasses(); s++ {
		res.SenderBps[s] = float64(net.ClassGoodput(s)) * 8 / cfg.Duration.Seconds()
		res.Retransmits[s] = net.ClassRetransmits(s)
	}
	res.TotalRetransmits = net.TotalRetransmits()
	res.Jain = metrics.Jain([]float64{res.SenderBps[0], res.SenderBps[1]})
	perFlow := make([]float64, 0, len(net.Flows()))
	for _, f := range net.Flows() {
		perFlow = append(perFlow, float64(f.Rcv.Goodput()))
	}
	res.FlowJain = metrics.Jain(perFlow)
	var total int64
	for _, ci := range net.MonitorClasses() {
		total += net.ClassGoodput(ci)
	}
	res.Utilization = metrics.Utilization(total, cfg.Duration, cfg.Bottleneck)
	mon := net.Monitor()
	qs := mon.Queue().Stats()
	res.QueueDropped, res.QueueMarked = qs.Dropped, qs.Marked
	pb, pp := mon.PeakQueue()
	res.PeakQueueBytes, res.PeakQueuePackets = int64(pb), pp
	sj := mon.Sojourn()
	res.SojournMean, res.SojournMax = sj.Mean, sj.Max
	res.FaultLossDrops, res.FaultDownDrops = mon.LossDrops(), mon.DownDrops()
	if cfg.Topology != nil {
		res.Groups = experiment.GroupResults(net, cfg)
		res.Ports = experiment.PortResults(net, cfg.Duration)
	}
	if p.fr != nil {
		res.FCT = experiment.FCTFromRunner(p.fr)
		d.opened, d.completed = p.fr.Opened(), p.fr.Completed()
	}
	d.res = res
	return d, nil
}
