package main

import "testing"

func TestQuantilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quantiles(xs), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Fatalf("quantiles = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quantiles([]float64{4, 1, 2}), [3]float64{1, 2, 4}; got != want {
		t.Fatalf("quantiles = %v, want %v", got, want)
	}
}

func TestCompareSelfTest(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

func TestCompareUnresolvedWhenNoisy(t *testing.T) {
	parent := []float64{1.0, 0.6, 1.4, 0.8, 1.2, 0.7, 1.3, 0.9, 1.1, 1.0}
	change := []float64{0.8, 0.5, 1.2, 0.6, 1.0, 0.5, 1.1, 0.7, 0.9, 0.8}
	if v := compare(parent, change, true, 0.1); v != unresolved {
		t.Fatalf("overlapping noisy runs judged %s, want %s", v, unresolved)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).RunUntil":     "sim",
		"repro/internal/svc.(*Server).handleSubmit": "svc",
		"repro/internal/packet.(*Pool).Get":         "other",
		"runtime.mallocgc":                          "runtime",
		"main.(*timedCCA).OnAck":                    "bench",
		"container/heap.down":                       "",
		"encoding/json.(*encodeState).marshal":      "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
