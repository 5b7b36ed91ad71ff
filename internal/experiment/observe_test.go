package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/units"
)

// observedCfg is the CLI's reference head-to-head: bbr1:cubic, FIFO,
// 2×BDP, 100 Mbps, 3 s, seed 1.
func observedCfg() Config {
	return Config{
		Pairing:    Pairing{CCA1: cca.BBRv1, CCA2: cca.Cubic},
		AQM:        aqm.KindFIFO,
		QueueBDP:   2,
		Bottleneck: 100 * units.MegabitPerSec,
		Duration:   3 * time.Second,
		Seed:       1,
	}
}

// observedEvents is observedCfg's event count, observers or not.
const observedEvents = 50_757

// TestObservedRunMatchesSweep: a run with every observer attached — the
// interval report, per-flow traces and the fairness observatory — is the
// same science as a plain run through the sweep runner, byte for byte
// (wall_ns and the additive fairness block aside), event count included.
func TestObservedRunMatchesSweep(t *testing.T) {
	armed := observedCfg()
	armed.Fairness = true
	var report bytes.Buffer
	obs, err := Run(armed, IntervalReport(&report), FlowTraces(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if obs.Fairness == nil || report.Len() == 0 {
		t.Fatal("observers did not run")
	}
	swept, err := RunAll([]Config{observedCfg()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain := swept[0]
	for _, r := range []Result{obs, plain} {
		if r.Events != observedEvents {
			t.Errorf("events = %d, want %d", r.Events, observedEvents)
		}
	}
	stripWall(&obs, &plain)
	obs.Fairness = nil
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(obs)
	if !bytes.Equal(a, b) {
		t.Fatalf("observed run differs from the sweep:\nsweep:    %s\nobserved: %s", a, b)
	}
}

// TestWatchdogBudgetExcludesObservation: a budget of exactly a plain run's
// event count lets the run complete, with or without the fairness
// observatory, because observation executes no engine event; one event
// less is an overrun.
func TestWatchdogBudgetExcludesObservation(t *testing.T) {
	cfg := observedCfg()
	cfg.MaxEvents = observedEvents
	if _, err := Run(cfg); err != nil {
		t.Fatalf("plain run with an exact budget: %v", err)
	}
	cfg.Fairness = true
	res, err := Run(cfg, IntervalReport(&bytes.Buffer{}))
	if err != nil {
		t.Fatalf("observed run with an exact budget: %v", err)
	}
	if res.Events != observedEvents {
		t.Fatalf("events = %d, want %d", res.Events, observedEvents)
	}
	cfg.MaxEvents = observedEvents - 1
	if _, err := Run(cfg); err == nil {
		t.Fatal("a budget one event short did not trip the watchdog")
	}
}

// TestSampleIntervalObservationOnly: the interval cadence only paces the
// interval observers, so a 250 ms interval keeps the Key, the recorded
// config and every result byte of the 1 s default.
func TestSampleIntervalObservationOnly(t *testing.T) {
	base := observedCfg()
	fine := base
	fine.SampleInterval = 250 * time.Millisecond
	if fine.Key() != base.Key() {
		t.Fatalf("SampleInterval changed the science key: %s != %s", fine.Key(), base.Key())
	}
	var report bytes.Buffer
	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fine, IntervalReport(&report))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(report.String(), "\n"); n != 12 {
		t.Fatalf("interval lines = %d, want 12 over 3s at 250ms", n)
	}
	stripWall(&a, &b)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("SampleInterval changed the result bytes:\n1s:    %s\n250ms: %s", ja, jb)
	}
}

func TestIntervalReportDumbbell(t *testing.T) {
	var buf bytes.Buffer
	_, err := Run(Config{
		Pairing:    Pairing{CCA1: cca.Reno, CCA2: cca.Cubic},
		AQM:        aqm.KindFIFO,
		QueueBDP:   2,
		Bottleneck: 100 * units.MegabitPerSec,
		Duration:   5 * time.Second,
	}, IntervalReport(&buf))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 interval lines over 5s, got %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "[   1.00s] sender1(reno ) ") ||
		!strings.HasPrefix(lines[4], "[   5.00s] ") {
		t.Fatalf("interval timestamps:\n%s", buf.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, " Mbps | sender2(cubic) ") || !strings.Contains(l, " pkts") {
			t.Fatalf("interval format: %q", l)
		}
	}
}

func TestIntervalReportGraph(t *testing.T) {
	pl := topo.ParkingLotSpec(3)
	var buf bytes.Buffer
	_, err := Run(Config{
		Pairing:    Pairing{CCA1: cca.Cubic, CCA2: cca.Cubic},
		AQM:        aqm.KindFIFO,
		QueueBDP:   2,
		Bottleneck: 100 * units.MegabitPerSec,
		Duration:   2 * time.Second,
		Topology:   &pl,
	}, IntervalReport(&buf))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 interval lines over 2s, got %d:\n%s", len(lines), buf.String())
	}
	for _, l := range lines {
		for _, col := range []string{" long ", " hop1 ", " hop2 ", " hop3 ", " b1 queue "} {
			if !strings.Contains(l, col) {
				t.Fatalf("graph interval line %q lacks %q", l, col)
			}
		}
	}
}

func TestFlowTracesFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Pairing:        Pairing{CCA1: cca.BBRv2, CCA2: cca.Cubic},
		AQM:            aqm.KindFQCoDel,
		QueueBDP:       2,
		Bottleneck:     100 * units.MegabitPerSec,
		Duration:       5 * time.Second,
		FlowsPerSender: 2,
	}
	if _, err := Run(cfg, FlowTraces(dir)); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 4 {
		t.Fatalf("want 4 trace files, got %v (%v)", files, err)
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		l, err := trace.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s not parseable: %v", name, err)
		}
		if len(l.Intervals) < 4 {
			t.Fatalf("%s has %d intervals", name, len(l.Intervals))
		}
		if l.Start.Congestion != "bbr2" && l.Start.Congestion != "cubic" {
			t.Fatalf("%s CCA: %q", name, l.Start.Congestion)
		}
		if l.End.SumReceived.Bytes <= 0 {
			t.Fatalf("%s end summary empty", name)
		}
	}
}

func TestRunBadCCA(t *testing.T) {
	_, err := Run(Config{
		Pairing:    Pairing{CCA1: "bogus", CCA2: cca.Cubic},
		Bottleneck: units.GigabitPerSec,
		Duration:   time.Second,
	})
	if err == nil {
		t.Fatal("want error for unknown CCA")
	}
}

// TestRunPaperDefaultsCubicPair: a head-to-head with everything else at
// the paper's defaults fills the link and records the pairing.
func TestRunPaperDefaultsCubicPair(t *testing.T) {
	res, err := Run(Config{
		Pairing:    Pairing{CCA1: cca.Cubic, CCA2: cca.Cubic},
		AQM:        aqm.KindFIFO,
		QueueBDP:   2,
		Bottleneck: 100 * units.MegabitPerSec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization < 0.7 {
		t.Fatalf("utilization %.3f", res.Utilization)
	}
	if res.Config.Pairing.CCA1 != cca.Cubic {
		t.Fatal("config not propagated")
	}
}
