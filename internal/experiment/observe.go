package experiment

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Observer watches a run from outside the science path. Observers only
// read simulation state. Run owns one observation clock: it advances the
// engine with RunUntil to the next observer deadline and calls the due
// observers between slices, so observation schedules no engine event and
// never counts toward Result.Events or the MaxEvents budget.
type Observer interface {
	// Start is called once the network and every long-running flow are
	// built, before the engine runs. It returns the observer's period:
	// Observe is called at every positive multiple of it up to and
	// including the run's end. A period of 0 means Observe is never called.
	Start(l *Live) (period time.Duration)
	// Observe is called with the clock at exactly now, after every event
	// due at or before now has executed.
	Observe(now sim.Time)
	// Finish is called once after a run that completed, with its result.
	Finish(res *Result) error
}

// Live is the read-only view of a run in progress that observers start on.
type Live struct {
	Cfg Config // normalized
	Net *topo.Network
	// Starts holds the start delay of each of Net.Flows(), in order.
	Starts []time.Duration
}

// runObserved starts every observer, then runs eng from time 0 to
// the configured duration in RunUntil slices that end at the next observer
// deadline, calling the due observers between slices. With no observers it
// is one RunUntil. It stops early when the watchdog trips.
func runObserved(eng *sim.Engine, l *Live, obs []Observer) {
	const never = sim.Time(1<<63 - 1)
	end := sim.Duration(l.Cfg.Duration)
	period := make([]sim.Time, len(obs))
	due := make([]sim.Time, len(obs))
	for i, o := range obs {
		period[i], due[i] = sim.Duration(o.Start(l)), never
		if period[i] > 0 {
			due[i] = period[i]
		}
	}
	for {
		t := end
		for _, d := range due {
			if d < t {
				t = d
			}
		}
		eng.RunUntil(t)
		if eng.Overrun() != nil {
			return
		}
		for i, d := range due {
			if d == t {
				obs[i].Observe(t)
				due[i] += period[i]
			}
		}
		if t == end {
			return
		}
	}
}

// fairnessObserver arms the fairness observatory on every long-running
// flow. Open-loop ephemeral flows are churn, not elephants: they are not in
// Net.Flows() and stay out of the fairness series. Run adds it when
// Config.Fairness is set; the disabled path installs nothing at all.
type fairnessObserver struct {
	fs *metrics.FairnessSampler
}

func (o *fairnessObserver) Start(l *Live) time.Duration {
	o.fs = metrics.NewFairnessSampler(l.Cfg.FairnessWindow, l.Cfg.Duration, l.Cfg.Bottleneck)
	for _, f := range l.Net.Flows() {
		conn := f.Conn
		o.fs.TrackFlow(uint32(f.ID), f.CCName, f.Sender, f.Rcv.Goodput,
			func() uint64 { return conn.Stats().Retransmits })
	}
	return o.fs.Window()
}

func (o *fairnessObserver) Observe(sim.Time) { o.fs.Sample() }

func (o *fairnessObserver) Finish(res *Result) error {
	res.Fairness = o.fs.Report(metrics.DefaultDetector())
	return nil
}

// IntervalReport returns an observer that writes an iperf3-like report of
// each sender class's goodput to w every Config.SampleInterval. The line
// keeps the historical two-sender shape on the dumbbell and switches to one
// class=rate column per group on graph topologies.
func IntervalReport(w io.Writer) Observer { return &intervalReport{w: w} }

type intervalReport struct {
	w     io.Writer
	l     *Live
	last  []int64
	rates []float64
}

func (o *intervalReport) Start(l *Live) time.Duration {
	o.l = l
	o.last = make([]int64, l.Net.NumClasses())
	o.rates = make([]float64, l.Net.NumClasses())
	return l.Cfg.SampleInterval
}

func (o *intervalReport) Observe(now sim.Time) {
	cfg, net := o.l.Cfg, o.l.Net
	for ci := range o.rates {
		cur := net.ClassGoodput(ci)
		o.rates[ci] = float64(cur-o.last[ci]) * 8 / cfg.SampleInterval.Seconds()
		o.last[ci] = cur
	}
	qlen := net.Monitor().Queue().Len()
	if cfg.Topology == nil {
		fmt.Fprintf(o.w,
			"[%7.2fs] sender1(%-5s) %9.2f Mbps | sender2(%-5s) %9.2f Mbps | queue %6d pkts\n",
			now.Seconds(), cfg.Pairing.CCA1, o.rates[0]/1e6,
			cfg.Pairing.CCA2, o.rates[1]/1e6, qlen)
		return
	}
	fmt.Fprintf(o.w, "[%7.2fs]", now.Seconds())
	for ci, r := range o.rates {
		fmt.Fprintf(o.w, " %s %9.2f Mbps |", net.ClassSpec(ci).Name, r/1e6)
	}
	fmt.Fprintf(o.w, " %s queue %6d pkts\n", net.MonitorName(), qlen)
}

func (o *intervalReport) Finish(*Result) error { return nil }

// FlowTraces returns an observer that records one iperf3-style JSON log per
// long-running flow, one interval every Config.SampleInterval, and writes
// them into dir as <config ID>_flow<N>.json when the run completes.
func FlowTraces(dir string) Observer { return &flowTraces{dir: dir} }

type flowTraces struct {
	dir  string
	l    *Live
	recs []*trace.Recorder
}

func (o *flowTraces) Start(l *Live) time.Duration {
	o.l = l
	for i, f := range l.Net.Flows() {
		title := fmt.Sprintf("%s/flow%d", l.Cfg.ID(), f.ID)
		o.recs = append(o.recs, trace.NewRecorder(title, f.CCName, f.Sender, uint32(f.ID), l.Starts[i]))
	}
	return l.Cfg.SampleInterval
}

func (o *flowTraces) Observe(now sim.Time) {
	for i, f := range o.l.Net.Flows() {
		o.recs[i].Observe(now.Seconds(), f.Rcv.Goodput(), f.Conn.Stats().Retransmits,
			f.Conn.Cwnd(), f.Conn.SRTT())
	}
}

func (o *flowTraces) Finish(*Result) error {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	cfg := o.l.Cfg
	for i, f := range o.l.Net.Flows() {
		st := f.Conn.Stats()
		l := o.recs[i].Finish(cfg.Duration.Seconds(), st.BytesSent, f.Rcv.Goodput(), st.Retransmits)
		name := fmt.Sprintf("%s_flow%d.json", cfg.ID(), f.ID)
		if err := writeTrace(filepath.Join(o.dir, name), l); err != nil {
			return err
		}
	}
	return nil
}

func writeTrace(path string, l *trace.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	if err := trace.Write(f, l); err != nil {
		return err
	}
	return f.Close()
}
