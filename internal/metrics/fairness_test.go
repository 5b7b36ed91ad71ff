package metrics

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// det returns the default detector with a short sustain for compact
// synthetic series.
func det(sustain int) DetectorConfig {
	d := DefaultDetector()
	d.SustainWindows = sustain
	return d
}

func TestConvergenceTimeKnownValues(t *testing.T) {
	w := 100 * time.Millisecond
	cases := []struct {
		name    string
		jain    []float64
		sustain int
		want    time.Duration
		ok      bool
	}{
		// Converges at index 2; sustain 3 → first window of the stretch
		// ends at (2+1)*w = 300ms.
		{"simple", []float64{0.5, 0.7, 0.96, 0.97, 0.99}, 3, 300 * time.Millisecond, true},
		// A lucky single window does not count with sustain 2.
		{"blip", []float64{0.5, 0.99, 0.5, 0.5}, 2, 0, false},
		// Fair from the very first window.
		{"immediate", []float64{1, 1, 1}, 3, 100 * time.Millisecond, true},
		// Never fair.
		{"never", []float64{0.5, 0.6, 0.7}, 1, 0, false},
		// Empty series.
		{"empty", nil, 3, 0, false},
		// NaN breaks a run: the stretch restarts after it.
		{"nan", []float64{0.99, math.NaN(), 0.99, 0.99}, 2, 300 * time.Millisecond, true},
	}
	for _, c := range cases {
		got, ok := ConvergenceTime(c.jain, w, det(c.sustain))
		if got != c.want || ok != c.ok {
			t.Errorf("%s: ConvergenceTime = (%v, %v), want (%v, %v)", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestTimeBelow(t *testing.T) {
	w := 100 * time.Millisecond
	jain := []float64{0.5, 0.95, 0.89, math.NaN(), 0.91}
	if got := TimeBelow(jain, w, 0.9); got != 200*time.Millisecond {
		t.Errorf("TimeBelow = %v, want 200ms (NaN must not count)", got)
	}
	if got := TimeBelow(nil, w, 0.9); got != 0 {
		t.Errorf("TimeBelow(nil) = %v, want 0", got)
	}
}

func TestTimeToFairShare(t *testing.T) {
	w := 100 * time.Millisecond
	d := det(2)
	// fair = 0.5, eps 0.25 → floor 0.375. Reached at indices 2,3.
	share := []float64{0.1, 0.2, 0.4, 0.45}
	got, ok := TimeToFairShare(share, 0.5, w, d)
	if !ok || got != 300*time.Millisecond {
		t.Errorf("TimeToFairShare = (%v, %v), want (300ms, true)", got, ok)
	}
	// Zero fair share (no flows) never triggers.
	if _, ok := TimeToFairShare(share, 0, w, d); ok {
		t.Error("zero fair share must never trigger")
	}
}

func TestStarvationEpisodesKnownValues(t *testing.T) {
	w := 100 * time.Millisecond
	d := DefaultDetector()
	d.StarvationMin = 300 * time.Millisecond // 3 windows
	// Two flows, fair = 0.5, starvation floor = 0.125. The victim sits at
	// 0.01 for windows 2..5 (4 windows ≥ 3) while the hog takes ~0.9.
	victim := FlowFairness{ID: 2, CCA: "cubic", Active: true, FirstActive: w,
		Share: []float64{0.45, 0.4, 0.01, 0.01, 0.01, 0.01, 0.4, 0.45}}
	hog := FlowFairness{ID: 1, CCA: "bbr1", Active: true, FirstActive: w,
		Share: []float64{0.45, 0.5, 0.9, 0.9, 0.9, 0.9, 0.5, 0.45}}
	eps := StarvationEpisodes([]FlowFairness{hog, victim}, 0.5, w, d)
	if len(eps) != 1 {
		t.Fatalf("episodes = %d, want 1: %+v", len(eps), eps)
	}
	ep := eps[0]
	if ep.FlowID != 2 || ep.CCA != "cubic" {
		t.Errorf("victim = flow %d (%s), want flow 2 (cubic)", ep.FlowID, ep.CCA)
	}
	if ep.Start != 200*time.Millisecond || ep.End != 600*time.Millisecond {
		t.Errorf("episode span = %v-%v, want 200ms-600ms", ep.Start, ep.End)
	}
	if !ep.Resolved {
		t.Error("episode ended mid-run and must be resolved")
	}
	if len(ep.Culprits) != 1 || ep.Culprits[0] != 1 {
		t.Errorf("culprits = %v, want [1]", ep.Culprits)
	}
	if math.Abs(ep.MeanShare-0.01) > 1e-12 {
		t.Errorf("victim mean share = %v, want 0.01", ep.MeanShare)
	}
}

func TestStarvationEpisodeUnresolvedAtEnd(t *testing.T) {
	w := 100 * time.Millisecond
	d := DefaultDetector()
	d.StarvationMin = 200 * time.Millisecond
	victim := FlowFairness{ID: 2, CCA: "reno", Active: true, FirstActive: w,
		Share: []float64{0.4, 0.01, 0.01, 0.01}}
	hog := FlowFairness{ID: 1, CCA: "bbr1", Active: true, FirstActive: w,
		Share: []float64{0.4, 0.9, 0.9, 0.9}}
	eps := StarvationEpisodes([]FlowFairness{hog, victim}, 0.5, w, d)
	if len(eps) != 1 {
		t.Fatalf("episodes = %d, want 1", len(eps))
	}
	if eps[0].Resolved {
		t.Error("episode running into the end of the series must be unresolved")
	}
}

func TestStarvationEpisodesUnderutilizedLinkNamesCulprit(t *testing.T) {
	// The culprit rule normalizes by delivered traffic, not capacity: with
	// the link 60% idle the hog's absolute share (0.35) is below fair share
	// (0.5) but still >1.5× the equal split of what was delivered.
	w := 100 * time.Millisecond
	d := DefaultDetector()
	d.StarvationMin = 300 * time.Millisecond
	victim := FlowFairness{ID: 2, CCA: "cubic", Active: true, FirstActive: w,
		Share: []float64{0.4, 0.01, 0.01, 0.01, 0.4}}
	hog := FlowFairness{ID: 1, CCA: "bbr1", Active: true, FirstActive: w,
		Share: []float64{0.4, 0.35, 0.35, 0.35, 0.4}}
	eps := StarvationEpisodes([]FlowFairness{hog, victim}, 0.5, w, d)
	if len(eps) != 1 || len(eps[0].Culprits) != 1 || eps[0].Culprits[0] != 1 {
		t.Fatalf("underutilized-link culprit not named: %+v", eps)
	}
}

func TestStarvationEpisodesDegenerate(t *testing.T) {
	w := 100 * time.Millisecond
	d := DefaultDetector()
	solo := []FlowFairness{{ID: 1, Active: true, Share: []float64{0, 0, 0}}}
	if eps := StarvationEpisodes(solo, 1, w, d); eps != nil {
		t.Errorf("single flow cannot starve itself: %+v", eps)
	}
	two := []FlowFairness{
		{ID: 1, Active: true, Share: []float64{0, 0}},
		{ID: 2, Active: true, Share: []float64{0, 0}},
	}
	if eps := StarvationEpisodes(two, 0, w, d); eps != nil {
		t.Errorf("zero fair share must yield no episodes: %+v", eps)
	}
	if eps := StarvationEpisodes(two, 0.5, 0, d); eps != nil {
		t.Errorf("zero window must yield no episodes: %+v", eps)
	}
	// A flow that never delivered a byte is not starved — it never started.
	inactive := []FlowFairness{
		{ID: 1, Active: true, Share: []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}},
		{ID: 2, Active: false, Share: []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
	}
	if eps := StarvationEpisodes(inactive, 0.5, w, d); eps != nil {
		t.Errorf("never-active flow reported starved: %+v", eps)
	}
}

// feedCounter grows a cumulative byte counter at a fixed rate via engine
// events, simulating a receiver's goodput counter.
type feedCounter struct {
	eng    *sim.Engine
	val    int64
	step   int64
	period time.Duration
	from   time.Duration
}

func (f *feedCounter) run() {
	if f.eng.Now() >= sim.Duration(f.from) {
		f.val += f.step
	}
	f.eng.Schedule(f.period, f.run)
}

// runSampled drives eng for d in window-long RunUntil slices and closes one
// sampler window between slices, the way experiment.Run's observation
// clock does.
func runSampled(eng *sim.Engine, fs *FairnessSampler, d time.Duration) {
	w := sim.Duration(fs.Window())
	for t := w; t <= sim.Duration(d); t += w {
		eng.RunUntil(t)
		fs.Sample()
	}
}

func TestFairnessSamplerStaggeredKnownValues(t *testing.T) {
	eng := sim.NewEngine(1)
	// Flow 1 delivers 125 kB / 10 ms (100 Mbps) from t=0; flow 2 the same
	// from t=1s. Bottleneck 200 Mbps → shares 0.5 each once both run.
	f1 := &feedCounter{eng: eng, step: 125_000, period: 10 * time.Millisecond}
	f2 := &feedCounter{eng: eng, step: 125_000, period: 10 * time.Millisecond, from: time.Second}
	eng.Schedule(10*time.Millisecond, f1.run)
	eng.Schedule(10*time.Millisecond, f2.run)

	fs := NewFairnessSampler(100*time.Millisecond, 3*time.Second, 200*units.MegabitPerSec)
	fs.TrackFlow(1, "cubic", 0, func() int64 { return f1.val }, func() uint64 { return 0 })
	fs.TrackFlow(2, "cubic", 1, func() int64 { return f2.val }, func() uint64 { return 0 })
	runSampled(eng, fs, 3*time.Second)

	rep := fs.Report(DefaultDetector())
	if rep.Windows != 30 {
		t.Fatalf("windows = %d, want 30", rep.Windows)
	}
	// Solo phase: flow 1 alone → Jain 0.5. Duo phase: equal → Jain 1.
	if rep.Jain[0] != 0.5 || rep.Jain[5] != 0.5 {
		t.Errorf("solo-phase Jain = %v/%v, want 0.5", rep.Jain[0], rep.Jain[5])
	}
	if rep.Jain[15] != 1 || rep.FinalJain != 1 {
		t.Errorf("duo-phase Jain = %v final %v, want 1", rep.Jain[15], rep.FinalJain)
	}
	// A window closes after every event due at its end, so flow 2's first
	// delivery at exactly t=1s lands in window index 9, (0.9s, 1s] →
	// ActiveFrom 0.9s. The convergence scan starts there, so the pre-start
	// solo windows (all 0.5) cannot have converged the run. Window 9 holds
	// one step of flow 2 against ten of flow 1, so it is unfair; Jain is
	// fair from window 10 on, and ConvergenceTime reports the end of the
	// first window of the sustained stretch → 1.1s.
	if rep.ActiveFrom != 900*time.Millisecond {
		t.Errorf("ActiveFrom = %v, want 0.9s", rep.ActiveFrom)
	}
	if rep.Jain[9] >= 0.95 {
		t.Errorf("Jain[9] = %v, want the unfair first shared window", rep.Jain[9])
	}
	if !rep.Converged || rep.ConvergenceTime != 1100*time.Millisecond {
		t.Errorf("convergence = (%v, %v), want (1.1s, true)", rep.ConvergenceTime, rep.Converged)
	}
	// Shares: flow 1 at 0.5 throughout; flow 2 at 0 then 0.5.
	if got := rep.Flows[0].Share[3]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("flow 1 share = %v, want 0.5", got)
	}
	if got := rep.Flows[1].Share[3]; got != 0 {
		t.Errorf("flow 2 pre-start share = %v, want 0", got)
	}
	if !rep.Flows[1].Active || rep.Flows[1].FirstActive != time.Second {
		t.Errorf("flow 2 FirstActive = %v (active=%v), want 1s", rep.Flows[1].FirstActive, rep.Flows[1].Active)
	}
	if len(rep.Episodes) != 0 {
		t.Errorf("episodes = %+v, want none (flow 2 scanned only from its start)", rep.Episodes)
	}
}

func TestFairnessSamplerSingleFlow(t *testing.T) {
	eng := sim.NewEngine(1)
	f1 := &feedCounter{eng: eng, step: 125_000, period: 10 * time.Millisecond}
	eng.Schedule(10*time.Millisecond, f1.run)
	fs := NewFairnessSampler(100*time.Millisecond, 2*time.Second, 100*units.MegabitPerSec)
	fs.TrackFlow(1, "cubic", 0, func() int64 { return f1.val }, func() uint64 { return 0 })
	runSampled(eng, fs, 2*time.Second)

	rep := fs.Report(DefaultDetector())
	// One flow is trivially fair: Jain ≡ 1, no episodes.
	for i, j := range rep.Jain {
		if j != 1 {
			t.Fatalf("Jain[%d] = %v, want 1 for a single flow", i, j)
		}
	}
	if !rep.Converged || rep.TimeBelowFloor != 0 || len(rep.Episodes) != 0 {
		t.Errorf("single flow: converged=%v below=%v episodes=%d, want true/0/0",
			rep.Converged, rep.TimeBelowFloor, len(rep.Episodes))
	}
}

func TestFairnessSamplerZeroLengthRun(t *testing.T) {
	fs := NewFairnessSampler(100*time.Millisecond, 0, 100*units.MegabitPerSec)
	fs.TrackFlow(1, "cubic", 0, func() int64 { return 0 }, func() uint64 { return 0 })
	// Never sampled: zero windows.
	rep := fs.Report(DefaultDetector())
	if rep.Windows != 0 || len(rep.Jain) != 0 {
		t.Fatalf("zero-length run: windows = %d", rep.Windows)
	}
	if rep.FinalJain != 1 || rep.MeanJain != 1 || rep.MinJain != 1 {
		t.Errorf("zero-length run Jain summary = %v/%v/%v, want 1/1/1 (trivially fair)",
			rep.FinalJain, rep.MeanJain, rep.MinJain)
	}
	if rep.Converged || len(rep.Episodes) != 0 {
		t.Errorf("zero-length run cannot converge or starve")
	}
}

func TestFairnessSamplerZeroThroughputGuard(t *testing.T) {
	eng := sim.NewEngine(1)
	// Two flows that never deliver a byte, on a zero-rate bottleneck: no
	// division blows up, every window is trivially fair, nothing is NaN.
	fs := NewFairnessSampler(100*time.Millisecond, time.Second, 0)
	fs.TrackFlow(1, "cubic", 0, func() int64 { return 0 }, func() uint64 { return 0 })
	fs.TrackFlow(2, "cubic", 1, func() int64 { return 0 }, func() uint64 { return 0 })
	runSampled(eng, fs, time.Second)

	rep := fs.Report(DefaultDetector())
	if rep.Windows == 0 {
		t.Fatal("sampler never ticked")
	}
	for i, j := range rep.Jain {
		if math.IsNaN(j) || j != 1 {
			t.Fatalf("Jain[%d] = %v, want 1 (idle link is trivially fair)", i, j)
		}
	}
	for _, f := range rep.Flows {
		if f.Active {
			t.Errorf("flow %d active with zero throughput", f.ID)
		}
		for i, s := range f.Share {
			if math.IsNaN(s) || s != 0 {
				t.Fatalf("share[%d] = %v on a zero-rate bottleneck, want 0", i, s)
			}
		}
	}
	if len(rep.Episodes) != 0 {
		t.Errorf("idle flows reported starved: %+v", rep.Episodes)
	}
}

func TestFairnessSamplerRetxRate(t *testing.T) {
	eng := sim.NewEngine(1)
	var retx uint64
	var feed func()
	feed = func() {
		retx += 3 // 3 retransmits per 100ms = 30/s
		eng.Schedule(100*time.Millisecond, feed)
	}
	eng.Schedule(100*time.Millisecond, feed)
	fs := NewFairnessSampler(100*time.Millisecond, time.Second, 100*units.MegabitPerSec)
	fs.TrackFlow(1, "cubic", 0, func() int64 { return 0 }, func() uint64 { return retx })
	runSampled(eng, fs, time.Second)
	rep := fs.Report(DefaultDetector())
	if len(rep.RetxRate) != 10 {
		t.Fatalf("retx windows = %d, want 10", len(rep.RetxRate))
	}
	// Each window closes after the feed due at its end, so every window,
	// the first included, holds exactly one feed: 30/s.
	for i, r := range rep.RetxRate {
		if math.Abs(r-30) > 1e-9 {
			t.Fatalf("retx rate[%d] = %v, want 30/s", i, r)
		}
	}
}
