// Command tcpfairbench is the repository's benchmark: it drives the
// simulator and the sweep service through their public entry points on
// three workloads, checks every result it produces against the recorded
// corpus in results/ (or against an audited twin), and prints end-to-end
// metrics from an untraced run or per-layer metrics from a traced one.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash tcpfairbench/run.sh --workload elephants-highbw --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit   string
	higherBetter bool
}

// endToEnd are the metrics of an untraced run. A "job" is the workload's
// unit of closed-loop work: one pass over its elephant configs, one
// competition + solo pair, or one daemon boot with the whole recorded grid
// re-submitted tier by tier.
var endToEnd = []metricDef{
	{"norm_cpu_per_sim_s", "ref/sim_s", false},
	{"setup_s", "s", false},
	{"peak_rss_mb", "MB", false},
}

// hostTimes are the untraced run's raw host timings. They are printed with
// the report but are not result metrics: on a shared virtual machine the
// hypervisor's other tenants stretch wall time and slow the CPU itself,
// for tens of seconds to minutes at a time, by more than any bound a
// comparison could use. norm_cpu_per_sim_s is cpu_s_per_sim_s, and
// setup_s is setup_cpu_s, with the host's speed divided out (see
// refloop.go).
var hostTimes = []metricDef{
	{"cpu_s_per_sim_s", "cpu_s/sim_s", false},
	{"sim_s_per_wall_s", "sim_s/s", true},
	{"job_s", "s", false},
	{"first_result_s", "s", false},
	{"setup_cpu_s", "s", false},
	{"ref_cpu_s", "s", false},
}

// perLayer are the metrics of a traced run, named <layer>.<metric>.
var perLayer = []metricDef{
	{"sim.events", "count", false},
	{"sim.events_per_sim_s", "1/s", false},
	{"sim.heap_peak", "count", false},
	{"sim.ns_per_event", "ns", false},
	{"sim.cpu_share", "frac", false},
	{"netem.cpu_share", "frac", false},
	{"netem.peak_queue_pkts", "pkts", false},
	{"netem.drops", "count", false},
	{"aqm.cpu_share", "frac", false},
	{"tcp.cpu_share", "frac", false},
	{"tcp.conns_opened", "count", true},
	{"tcp.retransmits", "count", false},
	{"cca.cpu_share", "frac", false},
	{"cca.calls", "count", false},
	{"cca.ns_per_call", "ns", false},
	{"topo.build_s", "s", false},
	{"topo.cpu_share", "frac", false},
	{"flows.cpu_share", "frac", false},
	{"flows.completed", "count", true},
	{"metrics.cpu_share", "frac", false},
	{"experiment.allocs_per_pkt", "allocs/pkt", false},
	{"experiment.gc_cpu_share", "frac", false},
	{"runtime.cpu_share", "frac", false},
	{"svc.cache_hits", "count", true},
	{"svc.cache_misses", "count", false},
	{"svc.sims", "count", false},
	{"svc.hit_ratio", "frac", true},
	{"svc.overhead_s", "s", false},
	{"svc.cpu_share", "frac", false},
	{"bench.trace_overhead", "frac", false},
}

// options are the command-line settings of one run.
type options struct {
	root     string
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
}

// run collects what one benchmark run measured.
type run struct {
	opts    options
	gate    gate
	exact   exact
	samples map[string][]float64 // end-to-end samples
	cpu     time.Duration        // process CPU time over the untraced jobs
	sim     float64              // simulated seconds of those jobs
	layer   map[string]float64   // per-layer values (traced run)
	absent  map[string]bool      // per-layer metrics the workload does not load
	notes   []string
	tr      *tracer
	profile []byte // traced run's CPU profile (pprof format)
}

// jobTimes is what one job measured.
type jobTimes struct {
	job   time.Duration   // the job's time (job_s)
	first []time.Duration // times to a first result, one per submission
	cpu   time.Duration   // process CPU time over the job
	sim   float64         // simulated seconds that count toward speed
}

// record adds one job's end-to-end samples.
func (r *run) record(t jobTimes) {
	r.sample("job_s", t.job.Seconds())
	for _, f := range t.first {
		r.sample("first_result_s", f.Seconds())
	}
	if t.sim > 0 {
		r.sample("sim_s_per_wall_s", t.sim/t.job.Seconds())
		r.sample("cpu_s_per_sim_s", t.cpu.Seconds()/t.sim)
		r.cpu += t.cpu
		r.sim += t.sim
	}
}

func (r *run) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"elephants-highbw": runElephants,
	"sweepd-corpus":    runSweepd,
	"mice-churn":       runMice,
}

func main() {
	var o options
	var seconds float64
	var traceFlag int
	flag.StringVar(&o.root, "root", ".", "repository checkout holding results/")
	flag.StringVar(&o.workload, "workload", "", "workload: elephants-highbw, sweepd-corpus or mice-churn")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 30, "measurement budget in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.budget = time.Duration(seconds * float64(time.Second))
	o.trace = traceFlag == 1
	fn, ok := workloads[o.workload]
	if !ok || seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "usage: tcpfairbench --workload <%s> --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if _, err := os.Stat(filepath.Join(o.root, "results", tierFiles[0]+".json")); err != nil {
		fmt.Fprintf(os.Stderr, "tcpfairbench: no recorded corpus under %s: %v\n", o.root, err)
		os.Exit(1)
	}

	r := &run{opts: o, exact: exact{}, samples: map[string][]float64{},
		layer: map[string]float64{}, absent: map[string]bool{}}
	steal0 := readSteal()
	if o.trace {
		r.tr = newTracer()
	}
	fmt.Printf("tcpfairbench workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, seconds, traceFlag)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if err := selfTest(); err != nil {
		r.gate.fail("comparison self-test: %v", err)
	} else {
		fmt.Println("self-test: comparison flags a 30% throughput drop and a fail_frac rise, not same-distribution noise")
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "tcpfairbench: %v\n", err)
		os.Exit(1)
	}
	if share, ok := readSteal().since(steal0); ok {
		r.note("host: %.1f%% of vCPU time stolen by the hypervisor during the run (other tenants; times are noisier when high)", 100*share)
	}
	if o.trace {
		base := filepath.Join(o.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d", o.workload, o.seed))
		if err := r.tr.write(base + ".json"); err != nil {
			r.note("spans not written: %v", err)
		} else if err := os.WriteFile(base+".pprof", r.profile, 0o644); err != nil {
			r.note("CPU profile not written: %v", err)
		} else {
			r.note("spans (%d) and CPU profile written to %s.{json,pprof}", len(r.tr.spans), base)
		}
	}
	os.Exit(r.report())
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable report and then the JSON result line,
// returning the exit code.
func (r *run) report() int {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	out := map[string]metricValue{}
	if !r.opts.trace {
		r.sample("peak_rss_mb", peakRSSMB())
		ref, setup := r.samples["ref_cpu_s"], r.samples["setup_cpu_s"]
		if len(ref) > 0 && len(setup) > 0 && r.sim > 0 {
			// A ratio of run totals: every job and every reference loop
			// weighs the same, however few jobs the budget allows.
			var refSum float64
			for _, x := range ref {
				refSum += x
			}
			refMean := refSum / float64(len(ref))
			norm := r.cpu.Seconds() / r.sim / refMean
			fmt.Printf("metric %-18s %14.6g %-11s run totals: %.4g cpu_s over %.6g sim_s, reference loop %.4g s (mean of n=%d)\n",
				"norm_cpu_per_sim_s", norm, "ref/sim_s", r.cpu.Seconds(), r.sim, refMean, len(ref))
			out["norm_cpu_per_sim_s"] = metricValue{norm, "ref/sim_s"}
			s := median(setup) * refNominal.Seconds() / refMean
			fmt.Printf("metric %-18s %14.6g %-11s median set-up CPU of n=%d, on a host where the reference loop takes %v\n",
				"setup_s", s, "s", len(setup), refNominal)
			out["setup_s"] = metricValue{s, "s"}
		} else {
			r.gate.fail("metrics norm_cpu_per_sim_s and setup_s have no samples")
		}
		for _, m := range endToEnd[2:] { // the metrics the reference loop does not scale
			if v, ok := r.printSamples("metric", m); ok {
				out[m.name] = metricValue{v, m.unit}
			}
		}
		for _, m := range hostTimes {
			r.printSamples("host  ", m)
		}
		fmt.Println("trace overhead: measured by the traced run (--trace 1), reported as bench.trace_overhead")
	} else {
		for _, m := range perLayer {
			v, ok := r.layer[m.name]
			if !ok {
				r.gate.fail("per-layer metric %s not measured", m.name)
				continue
			}
			state := ""
			if r.absent[m.name] {
				state = "  (absent: workload does not load this layer)"
			}
			fmt.Printf("metric %-26s %14.6g %s%s\n", m.name, v, m.unit, state)
			out[m.name] = metricValue{v, m.unit}
		}
		fmt.Printf("trace overhead: %+.1f%% traced vs untraced job wall time on %s\n",
			100*r.layer["bench.trace_overhead"], r.opts.workload)
		for _, s := range r.tr.summary() {
			fmt.Printf("span %-48s n=%-6d total %9.4f s  self %9.4f s\n", s.name, s.count, s.total.Seconds(), s.self.Seconds())
		}
	}
	for _, name := range r.exact.names() {
		fmt.Printf("exact %-24s %d (repeated exactly across jobs)\n", name, r.exact[name])
	}
	for name, v := range out {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.gate.fail("metric %s is not a finite number", name)
			out[name] = metricValue{0, v.Unit}
		}
	}
	g := r.gate
	failFrac := 0.0
	if g.attempted > 0 {
		failFrac = float64(g.failed) / float64(g.attempted)
	}
	correct := g.failed == 0 && len(g.problems) == 0 && g.attempted > 0
	fmt.Printf("correctness: %d/%d results match their reference, fail_frac=%g, %d problems\n",
		g.attempted-g.failed, g.attempted, failFrac, len(g.problems))
	for _, p := range g.problems {
		fmt.Println("  FAIL " + p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, max(g.attempted, 1), g.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcpfairbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// printSamples prints one line for metric m: the median of its samples,
// their count, the worst sample and the highest percentile the count
// supports. It returns the median, or false when m has no samples.
func (r *run) printSamples(kind string, m metricDef) (float64, bool) {
	xs := r.samples[m.name]
	if len(xs) == 0 {
		r.gate.fail("metric %s has no samples", m.name)
		return 0, false
	}
	v := median(xs)
	worst, pct, at := tail(xs, m.higherBetter)
	line := fmt.Sprintf("%s %-18s %14.6g %-11s median of n=%d, worst %.6g", kind, m.name, v, m.unit, len(xs), worst)
	if pct > 0 {
		line += fmt.Sprintf(", p%d %.6g", pct, at)
	}
	if len(xs) <= 12 {
		line += fmt.Sprintf(", samples %.4g", xs)
	}
	fmt.Println(line)
	return v, true
}

// cpuTime is the process's CPU time so far, user plus system, every
// thread (GC workers included).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcMeter reads the runtime's GC and total CPU estimates and its malloc
// count, so a span of work can be charged its GC share and allocations.
type gcMeter struct {
	gc, total float64
	mallocs   uint64
}

func readGC() gcMeter {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := gcMeter{mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		m.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		m.total = s[1].Value.Float64()
	}
	return m
}

// since returns the GC CPU, total CPU and mallocs accrued after prev.
func (m gcMeter) since(prev gcMeter) gcMeter {
	return gcMeter{gc: m.gc - prev.gc, total: m.total - prev.total, mallocs: m.mallocs - prev.mallocs}
}

// measureSetup runs setup once untimed, so the runtime's heap has grown
// past its start-up size, then n times, recording each.
func (r *run) measureSetup(n int, setup func() (time.Duration, error)) error {
	for i := 0; i <= n; i++ {
		d, err := setup()
		if err != nil {
			return err
		}
		if i > 0 {
			r.sample("setup_cpu_s", d.Seconds())
		}
	}
	return nil
}

// cpuStat is the machine-wide stolen and total vCPU time from /proc/stat,
// in clock ticks.
type cpuStat struct{ steal, total uint64 }

func readSteal() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var s cpuStat
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuStat{}
		}
		if i <= 8 { // user nice system idle iowait irq softirq steal
			s.total += v
		}
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

// since returns the share of vCPU time stolen since an earlier reading.
func (s cpuStat) since(prev cpuStat) (float64, bool) {
	if s.total <= prev.total {
		return 0, false
	}
	return float64(s.steal-prev.steal) / float64(s.total-prev.total), true
}

// loop runs job closed-loop, the next starting when the previous ends,
// for as long as the budget leaves room for one more job of the mean
// length seen so far; at least one job always runs. Each job starts from
// a collected heap, so the garbage of the previous one (and of the
// benchmark's own checks) does not shift its GC cycles and memory peak.
// In an untraced run a reference loop before the first job and after
// every job samples the host's speed for norm_cpu_per_sim_s.
func (r *run) loop(budget time.Duration, job func() error) error {
	refSample := func() {
		if !r.opts.trace {
			runtime.GC()
			r.sample("ref_cpu_s", refLoop().Seconds())
		}
	}
	refSample()
	start := time.Now()
	for i := 0; ; i++ {
		runtime.GC()
		if err := job(); err != nil {
			return err
		}
		refSample()
		el := time.Since(start)
		if el+el/time.Duration(i+1) > budget {
			return nil
		}
	}
}
