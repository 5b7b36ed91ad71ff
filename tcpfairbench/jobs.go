package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiment"
)

// setupRecorded is the set-up of the workloads that replay recorded
// configs: load the corpus, expand the seed's configs, and build each
// one's network and flows up to its first simulated event. It returns the
// process CPU time the set-up took.
func setupRecorded(root string, pick func(*corpus) ([]experiment.Config, error)) (time.Duration, error) {
	c0 := cpuTime()
	c, err := loadCorpus(root)
	if err != nil {
		return 0, err
	}
	cfgs, err := pick(c)
	if err != nil {
		return 0, err
	}
	for _, cfg := range cfgs {
		if _, err := prepare(cfg, nil, 0); err != nil {
			return 0, err
		}
	}
	return cpuTime() - c0, nil
}

func configsOf(recs []experiment.Result) []experiment.Config {
	out := make([]experiment.Config, len(recs))
	for i, r := range recs {
		out[i] = r.Config
	}
	return out
}

// replayWorkload measures a workload of configs run one at a time. The
// untraced run repeats the job closed-loop through experiment.Run. The
// traced run does one untraced job as the overhead reference, then drives
// the same configs layer by layer under the CPU profiler, asserting each
// driven result equals experiment.Run's.
func replayWorkload(r *run, cfgs []experiment.Config, check func(int, experiment.Result) string) error {
	if !r.opts.trace {
		return r.loop(r.opts.budget, func() error {
			replayJob(r, cfgs, check)
			return nil
		})
	}
	start := time.Now()
	ref := replayJob(r, cfgs, check)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	var traced []time.Duration
	var last layerTotals
	err := r.loop(r.opts.budget-time.Since(start), func() error {
		t0 := time.Now()
		lt, err := driveJob(r, cfgs, ref.results)
		traced = append(traced, time.Since(t0))
		last = lt
		return err
	})
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	return r.layers(ref, last, traced, prof.Bytes(), false)
}

// refJob is what one untraced job measured.
type refJob struct {
	results []experiment.Result
	wall    time.Duration
	gc      gcMeter // deltas over the job
	segs    float64 // data segments delivered
}

// replayJob runs the configs once each through experiment.Run, checks
// every result, and records one end-to-end sample per metric.
func replayJob(r *run, cfgs []experiment.Config, check func(int, experiment.Result) string) refJob {
	var j refJob
	var first time.Duration
	g0, cpu0, t0 := readGC(), cpuTime(), time.Now()
	var sim float64
	var events uint64
	for i, cfg := range cfgs {
		res, err := experiment.Run(cfg)
		if err != nil {
			res.Error = err.Error()
		}
		if i == 0 {
			first = time.Since(t0)
		}
		r.gate.check(cfg.ID(), check(i, res))
		j.results = append(j.results, res)
		j.segs += deliveredSegments(res)
		sim += res.SimSeconds
		events += res.Events
	}
	j.wall = time.Since(t0)
	cpu := cpuTime() - cpu0
	j.gc = readGC().since(g0)
	r.exact.record(&r.gate, "sim.events", events)
	r.record(jobTimes{job: j.wall, first: []time.Duration{first}, cpu: cpu, sim: sim})
	return j
}

// deliveredSegments estimates the data segments a run delivered: the
// long-running flows' goodput plus the open-loop flows' completed bytes,
// over the default 8900-byte payload.
func deliveredSegments(res experiment.Result) float64 {
	bytes := (res.SenderBps[0] + res.SenderBps[1]) * res.SimSeconds / 8
	if fct := res.FCT.Class("all"); fct != nil {
		bytes += float64(fct.Bytes)
	}
	return bytes / 8900
}

// layerTotals sums what the layer-by-layer drive of one job measured.
type layerTotals struct {
	events, ccaCalls, drops, retrans uint64
	ccaNs                            int64
	heapPeak, peakQueue              int
	opened, completed                int
	simSeconds                       float64
	builds                           []float64
}

func (lt *layerTotals) add(d driven) {
	lt.events += d.res.Events
	lt.ccaCalls += d.cca.calls
	lt.ccaNs += d.cca.ns
	lt.drops += d.res.QueueDropped
	lt.retrans += d.res.TotalRetransmits
	lt.heapPeak = max(lt.heapPeak, d.heapPeak)
	lt.peakQueue = max(lt.peakQueue, d.res.PeakQueuePackets)
	lt.opened += d.opened
	lt.completed += d.completed
	lt.simSeconds += d.res.SimSeconds
	lt.builds = append(lt.builds, d.build.Seconds())
}

// driveJob drives each config layer by layer and asserts that its events
// and science equal want, experiment.Run's result for the same config.
func driveJob(r *run, cfgs []experiment.Config, want []experiment.Result) (layerTotals, error) {
	var lt layerTotals
	job := r.tr.begin("job", 0)
	for i, cfg := range cfgs {
		sp := r.tr.begin("config "+cfg.ID(), job)
		d, err := drive(cfg, r.tr, sp)
		r.tr.end(sp, nil)
		if err != nil {
			return lt, err
		}
		d.res.Config, d.res.Wall = want[i].Config, want[i].Wall
		r.gate.check(cfg.ID()+" (driven vs experiment.Run)", fullDiff(d.res, want[i]))
		lt.add(d)
	}
	r.tr.end(job, nil)
	r.exact.record(&r.gate, "sim.events", lt.events)
	r.exact.record(&r.gate, "sim.heap_peak", uint64(lt.heapPeak))
	r.exact.record(&r.gate, "cca.calls", lt.ccaCalls)
	r.exact.record(&r.gate, "tcp.conns_opened", uint64(lt.opened))
	r.exact.record(&r.gate, "flows.completed", uint64(lt.completed))
	return lt, nil
}

// layers fills the per-layer metrics of a traced run from the untraced
// reference job, the driven job's totals, the traced job wall times and
// the CPU profile. Workloads that do not load svc report its metrics as
// zero and mark them absent; the caller of one that does fills them.
func (r *run) layers(ref refJob, lt layerTotals, traced []time.Duration, prof []byte, svcLoaded bool) error {
	if err := r.cpuShares(prof); err != nil {
		return err
	}
	var refEvents uint64
	for _, res := range ref.results {
		refEvents += res.Events
	}
	L := r.layer
	L["sim.events"] = float64(lt.events)
	L["sim.events_per_sim_s"] = float64(lt.events) / lt.simSeconds
	L["sim.heap_peak"] = float64(lt.heapPeak)
	L["sim.ns_per_event"] = float64(ref.wall.Nanoseconds()) / float64(refEvents)
	L["netem.peak_queue_pkts"] = float64(lt.peakQueue)
	L["netem.drops"] = float64(lt.drops)
	L["tcp.conns_opened"] = float64(lt.opened)
	L["tcp.retransmits"] = float64(lt.retrans)
	L["cca.calls"] = float64(lt.ccaCalls)
	L["cca.ns_per_call"] = 0
	if lt.ccaCalls > 0 {
		L["cca.ns_per_call"] = float64(lt.ccaNs) / float64(lt.ccaCalls)
	}
	L["topo.build_s"] = median(lt.builds)
	L["flows.completed"] = float64(lt.completed)
	L["experiment.allocs_per_pkt"] = float64(ref.gc.mallocs) / ref.segs
	L["experiment.gc_cpu_share"] = ref.gc.gc / ref.gc.total
	if !svcLoaded {
		for _, m := range []string{"svc.cache_hits", "svc.cache_misses", "svc.sims", "svc.hit_ratio", "svc.overhead_s", "svc.cpu_share"} {
			L[m] = 0
			r.absent[m] = true
		}
	}
	if lt.opened == 0 {
		r.absent["tcp.conns_opened"], r.absent["flows.completed"] = true, true
	}
	var tw []float64
	for _, d := range traced {
		tw = append(tw, d.Seconds())
	}
	L["bench.trace_overhead"] = median(tw)/ref.wall.Seconds() - 1
	return nil
}

// cpuShares folds the traced run's CPU profile into the *.cpu_share
// metrics.
func (r *run) cpuShares(prof []byte) error {
	r.profile = prof
	shares, n, err := foldProfile(prof)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("CPU profile recorded no samples")
	}
	for _, m := range perLayer {
		if l, ok := strings.CutSuffix(m.name, ".cpu_share"); ok {
			r.layer[m.name] = shares[l]
		}
	}
	r.note("cpu profile: %d samples; shares outside the reported layers: experiment %.4f, bench %.4f, other %.4f",
		n, shares["experiment"], shares["bench"], shares["other"])
	return nil
}
