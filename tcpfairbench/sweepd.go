package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/aqm"
	"repro/internal/experiment"
	"repro/internal/svc"
	"repro/internal/units"
)

// sliceCells are the (AQM, buffer) cells of the held-out slice in each of
// its two tiers: every AQM twice, every buffer size of at most 2xBDP twice.
// Deeper FIFO buffers would make memory per job depend on the seed.
var sliceCells = []struct {
	aqm aqm.Kind
	bdp float64
}{
	{aqm.KindFIFO, 0.5}, {aqm.KindRED, 1}, {aqm.KindFQCoDel, 2},
	{aqm.KindFIFO, 2}, {aqm.KindRED, 0.5}, {aqm.KindFQCoDel, 1},
}

// holdOut picks, from the seed, the stratified slice of the corpus the
// daemon's journal leaves out and must therefore simulate: six configs at
// 100 Mbps (the first six paper pairings) and six at 1 Gbps (the last
// three and the first three), so all nine pairings appear, each tier
// holding every slice cell once; the seed shuffles which pairing gets
// which cell. The pairings, whose costs differ up to twofold, stay on
// fixed tiers, so every seed asks the daemon for the same work: six
// misses per tier.
func holdOut(c *corpus, seed uint64) ([]experiment.Result, error) {
	rng := splitmix(seed ^ 0x5eedd)
	pairings := experiment.PaperPairings()
	var out []experiment.Result
	for ti, bw := range []units.Bandwidth{100 * units.MegabitPerSec, units.GigabitPerSec} {
		t := c.tier(bw)
		cells := append(sliceCells[:0:0], sliceCells...)
		for i := len(cells) - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			cells[i], cells[j] = cells[j], cells[i]
		}
		for k, cell := range cells {
			p := pairings[(ti*len(cells)+k)%len(pairings)]
			found := false
			for _, r := range t.results {
				if r.Config.Pairing == p && r.Config.AQM == cell.aqm && r.Config.QueueBDP == cell.bdp {
					out = append(out, r)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("corpus %s has no %s %s %gbdp record", t.name, p, cell.aqm, cell.bdp)
			}
		}
	}
	return out, nil
}

// daemon is an in-process sweepd in local mode on a loopback listener.
type daemon struct {
	srv    *svc.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *svc.Client
}

// boot starts the daemon on journal the way cmd/sweepd does — svc.New
// (journal load with its boot-time integrity scan), a listener, the HTTP
// server — and returns once the first health check is answered, with the
// process CPU time the boot took.
func boot(journal string, shards int) (*daemon, time.Duration, error) {
	c0 := cpuTime()
	srv, err := svc.New(svc.Options{Journal: journal, Shards: shards})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		tr: &http.Transport{}}
	go func() { d.served <- d.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	d.client = &svc.Client{Base: base, HTTP: &http.Client{Transport: d.tr}}
	resp, err := d.client.HTTP.Get(base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	up := cpuTime() - c0
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, up, nil
}

// stop shuts the HTTP server down, waits for it to return, and closes the
// daemon (which compacts its journal).
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	d.tr.CloseIdleConnections()
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// counters reads the named unlabeled samples from the /metrics text.
func counters(text []byte, names ...string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		for _, n := range names {
			if f[0] == n {
				if v, err := strconv.ParseFloat(f[1], 64); err == nil {
					out[n] = v
				}
			}
		}
	}
	return out
}

// sweepd is the sweepd-corpus workload's state.
type sweepd struct {
	c       *corpus
	slice   []experiment.Result
	heldIDs map[string]bool // config IDs the daemon must simulate
	fixture []byte          // journal holding every other corpus result
	work    string          // scratch directory for per-boot journals
	shards  int
	boots   int
}

// fresh writes a new copy of the fixture journal and returns its path.
func (w *sweepd) fresh() (string, error) {
	w.boots++
	path := filepath.Join(w.work, fmt.Sprintf("journal-%d.jsonl", w.boots))
	return path, os.WriteFile(path, w.fixture, 0o644)
}

// iteration is what one boot-and-resubmit job measured.
type iteration struct {
	job       time.Duration // summed submit-to-last-/results-byte time
	simulated []experiment.Result
	counts    map[string]float64
	gc        gcMeter
}

// iterate boots a daemon on a fresh fixture journal and re-submits the
// recorded grid with one client, one tier at a time, checking every served
// result against its corpus record and that exactly the held-out slice
// was simulated.
func (w *sweepd) iterate(r *run, parent int) (iteration, error) {
	var it iteration
	journal, err := w.fresh()
	if err != nil {
		return it, err
	}
	sp := r.tr.begin("svc boot", parent)
	d, up, err := boot(journal, w.shards)
	r.tr.end(sp, nil)
	if err != nil {
		return it, err
	}
	g0, cpu0 := readGC(), cpuTime()
	var sim float64
	var firsts []time.Duration
	for _, t := range w.c.tiers {
		job, first, res, err := w.submit(r, d.client, t, parent)
		if err != nil {
			d.stop()
			return it, err
		}
		it.job += job
		firsts = append(firsts, first)
		for _, x := range res {
			it.simulated = append(it.simulated, x)
			sim += x.SimSeconds
		}
	}
	cpu := cpuTime() - cpu0
	it.gc = readGC().since(g0)
	sp = r.tr.begin("svc.Client.Metrics", parent)
	text, err := d.client.Metrics()
	r.tr.end(sp, nil)
	if err != nil {
		d.stop()
		return it, err
	}
	it.counts = counters(text, "sweepd_cache_hits_total", "sweepd_cache_misses_total", "sweepd_sims_total")
	if err := d.stop(); err != nil {
		return it, fmt.Errorf("daemon shutdown: %w", err)
	}
	os.Remove(journal)

	sims := uint64(it.counts["sweepd_sims_total"])
	if sims != uint64(len(w.slice)) {
		r.gate.fail("daemon simulated %d configs, held-out slice has %d", sims, len(w.slice))
	}
	r.exact.record(&r.gate, "svc.cache_hits", uint64(it.counts["sweepd_cache_hits_total"]))
	r.exact.record(&r.gate, "svc.cache_misses", uint64(it.counts["sweepd_cache_misses_total"]))
	r.exact.record(&r.gate, "svc.sims", sims)
	var events uint64
	for _, x := range it.simulated {
		events += x.Events
	}
	r.exact.record(&r.gate, "sim.events", events)
	r.record(jobTimes{job: it.job, first: firsts, cpu: cpu, sim: sim})
	r.sample("setup_cpu_s", up.Seconds())
	return it, nil
}

// submit posts one tier's spec, follows its event stream and fetches its
// result set, returning the submit-to-last-byte time, the submit-to-first-
// event time, and the results the daemon simulated rather than served.
func (w *sweepd) submit(r *run, cl *svc.Client, t tier, parent int) (job, first time.Duration, simulated []experiment.Result, err error) {
	want := len(t.results)
	t0 := time.Now()
	sp := r.tr.begin("svc.Client.Submit "+t.name, parent)
	st, err := cl.Submit(t.spec())
	r.tr.end(sp, nil)
	if err != nil {
		// A refused submission fails every config it held; its latency is
		// the time until the refusal.
		r.gate.attempted += want
		r.gate.failed += want
		r.gate.fail("submit %s: %v", t.name, err)
		return time.Since(t0), time.Since(t0), nil, nil
	}
	sp = r.tr.begin("svc.Client.Stream "+t.name, parent)
	fresh := map[string]bool{}
	err = cl.Stream(context.Background(), st.ID, func(ev svc.Event) {
		if first == 0 {
			first = time.Since(t0)
		}
		if !ev.Cached {
			fresh[ev.ConfigID] = true
		}
	})
	r.tr.end(sp, nil)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("stream %s: %w", t.name, err)
	}
	sp = r.tr.begin("svc.Client.Results "+t.name, parent)
	body, err := cl.Results(st.ID)
	job = time.Since(t0)
	r.tr.end(sp, map[string]float64{"bytes": float64(len(body))})
	if err != nil {
		return 0, 0, nil, fmt.Errorf("results %s: %w", t.name, err)
	}
	rs, err := experiment.ReadJSON(bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, fmt.Errorf("results %s: %w", t.name, err)
	}
	if len(rs.Results) != want {
		r.gate.fail("tier %s served %d results, recorded %d", t.name, len(rs.Results), want)
	}
	if missing := want - len(rs.Results); missing > 0 {
		r.gate.attempted += missing
		r.gate.failed += missing
	}
	for _, res := range rs.Results {
		id := res.Config.ID()
		rec, ok := w.c.byKey[res.Config.Key()]
		if !ok {
			r.gate.check(id, "not in the recorded corpus")
			continue
		}
		r.gate.check(id, corpusDiff(res, rec))
		if fresh[id] {
			simulated = append(simulated, res)
		}
	}
	for id := range fresh {
		if !w.heldIDs[id] {
			r.gate.fail("%s was re-simulated although its result was journaled", id)
		}
	}
	for _, rec := range w.slice {
		if rec.Config.Bottleneck == t.bw && !fresh[rec.Config.ID()] {
			r.gate.fail("held-out %s was not simulated", rec.Config.ID())
		}
	}
	return job, first, simulated, nil
}

// runSweepd boots sweepd in local mode on a journal holding the whole
// corpus except the seed's held-out slice and re-submits the recorded
// grid, once per boot, closed-loop.
func runSweepd(r *run) error {
	c, err := loadCorpus(r.opts.root)
	if err != nil {
		return err
	}
	slice, err := holdOut(c, r.opts.seed)
	if err != nil {
		return err
	}
	// One shard: the simulations run one at a time, as on the other
	// workloads, and the second vCPU is left to the garbage collector and
	// the HTTP path. Two shards on two vCPUs slow each other by an amount
	// that varies from job to job.
	w := &sweepd{c: c, slice: slice, heldIDs: map[string]bool{}, shards: 1}
	held := map[string]bool{}
	var ids []string
	for _, rec := range slice {
		held[rec.Config.Key()] = true
		w.heldIDs[rec.Config.ID()] = true
		ids = append(ids, rec.Config.ID())
	}
	sort.Strings(ids)
	r.note("held-out slice (%d configs, simulated by the daemon): %s", len(ids), strings.Join(ids, ", "))

	// Fixture preparation is not timed: the journal every boot starts from.
	scratch := filepath.Join(r.opts.root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	if w.work, err = os.MkdirTemp(scratch, "sweepd-"); err != nil {
		return err
	}
	defer os.RemoveAll(w.work)
	fixture := filepath.Join(w.work, "fixture.jsonl")
	ck, err := experiment.OpenCheckpoint(fixture)
	if err != nil {
		return err
	}
	ck.SetSyncPolicy(1<<30, 0)
	for _, t := range c.tiers {
		for _, res := range t.results {
			if !held[res.Config.Key()] {
				if err := ck.Append(res); err != nil {
					ck.Close()
					return err
				}
			}
		}
	}
	if err := ck.Close(); err != nil {
		return err
	}
	if w.fixture, err = os.ReadFile(fixture); err != nil {
		return err
	}

	// Boot-only rounds add set-up samples, so setup_s rests on a median of
	// several boots however few jobs the budget allows.
	for i := 0; i < 8; i++ {
		journal, err := w.fresh()
		if err != nil {
			return err
		}
		d, up, err := boot(journal, w.shards)
		if err != nil {
			return err
		}
		r.sample("setup_cpu_s", up.Seconds())
		if err := d.stop(); err != nil {
			return err
		}
		os.Remove(journal)
	}

	if !r.opts.trace {
		return r.loop(r.opts.budget, func() error {
			_, err := w.iterate(r, 0)
			return err
		})
	}

	// Traced run: one untraced job as the overhead reference, then traced
	// jobs under the CPU profiler, then the held-out slice driven layer by
	// layer (outside the profile) for heap depth and CCA counts.
	start := time.Now()
	ref, err := w.iterate(r, 0)
	if err != nil {
		return err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	var traced []time.Duration
	var last iteration
	err = r.loop(r.opts.budget-time.Since(start), func() error {
		job := r.tr.begin("job", 0)
		it, err := w.iterate(r, job)
		r.tr.end(job, nil)
		traced = append(traced, it.job)
		last = it
		return err
	})
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}

	cfgs := make([]experiment.Config, len(ref.simulated))
	for i, res := range ref.simulated {
		cfgs[i] = res.Config
	}
	lt, err := driveJob(r, cfgs, ref.simulated)
	if err != nil {
		return err
	}
	var walls time.Duration
	var events uint64
	var segs float64
	for _, res := range ref.simulated {
		walls += res.Wall
		events += res.Events
		segs += deliveredSegments(res)
	}
	if err := r.layers(refJob{results: ref.simulated, wall: ref.job, gc: ref.gc, segs: segs}, lt, traced, prof.Bytes(), true); err != nil {
		return err
	}
	hits, misses := last.counts["sweepd_cache_hits_total"], last.counts["sweepd_cache_misses_total"]
	L := r.layer
	L["sim.ns_per_event"] = float64(walls.Nanoseconds()) / float64(events)
	L["svc.cache_hits"] = hits
	L["svc.cache_misses"] = misses
	L["svc.sims"] = last.counts["sweepd_sims_total"]
	L["svc.hit_ratio"] = hits / (hits + misses)
	L["svc.overhead_s"] = ref.job.Seconds() - walls.Seconds()/float64(w.shards)
	return nil
}
