package main

import (
	"fmt"
	"math"
	"sort"
)

// quantiles returns the three quartile cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how run-to-run spread is judged against a metric's bound.
func quantiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	if n == 0 {
		return q
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// median returns the middle value of xs (mean of the middle two).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q := quantiles(xs)
	if q[1] == 0 {
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// tail returns the worst sample and, when the sample count supports one,
// the highest percentile with at least ten samples beyond it (0 when none).
func tail(xs []float64, higherBetter bool) (worst float64, pct int, at float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if higherBetter {
		worst = s[0]
	} else {
		worst = s[n-1]
	}
	if n < 20 {
		return worst, 0, 0
	}
	pct = 100 * (n - 10) / n
	k := int(math.Ceil(float64(pct)/100*float64(n))) - 1
	if higherBetter {
		return worst, pct, s[n-1-k]
	}
	return worst, pct, s[k]
}

// verdict is the outcome of comparing a change's runs against its parent's.
type verdict string

const (
	same       verdict = "same"
	regressed  verdict = "regressed"
	improved   verdict = "improved"
	unresolved verdict = "unresolved"
)

// compare judges one metric's runs on a change against the parent's. A
// median worse by more than bound (a share of the parent's median) is a
// regression, unless the parent's own spread exceeds the bound and the
// runs overlap, which leaves it unresolved. Failure shares (bound < 0)
// regress on any rise at all: a run that changes the science is never
// noise.
func compare(parent, change []float64, higherBetter bool, bound float64) verdict {
	mp, mc := median(parent), median(change)
	if bound < 0 {
		switch {
		case mc > mp:
			return regressed
		case mc < mp:
			return improved
		}
		return same
	}
	worse := (mc - mp) / math.Abs(mp)
	if higherBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		if spread(parent) > bound && !separated(parent, change, higherBetter) {
			return unresolved
		}
		return regressed
	case worse < -bound:
		if spread(parent) > bound && !separated(change, parent, higherBetter) {
			return unresolved
		}
		return improved
	}
	return same
}

// separated reports whether every run of b is worse than every run of a.
func separated(a, b []float64, higherBetter bool) bool {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if higherBetter {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// selfTest checks compare on synthetic samples drawn from a fixed-seed
// generator: an injected 30% drop in throughput must be flagged, two draws
// from one distribution must not be, and a higher failure share must be.
func selfTest() error {
	rng := splitmix(0x5eed)
	draw := func(mean, rel float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			// Sum of uniforms: a bell-shaped sample with ±rel half-width.
			u := (rng.float() + rng.float() + rng.float()) / 3
			xs[i] = mean * (1 + rel*(2*u-1))
		}
		return xs
	}
	const bound = 0.1
	base := draw(1.0, 0.03)
	if v := compare(base, draw(0.7, 0.03), true, bound); v != regressed {
		return fmt.Errorf("30%% throughput drop judged %s, want %s", v, regressed)
	}
	for i := 0; i < 20; i++ {
		if v := compare(draw(1.0, 0.03), draw(1.0, 0.03), true, bound); v != same {
			return fmt.Errorf("same-distribution samples judged %s, want %s", v, same)
		}
	}
	if v := compare(draw(10, 0.03), draw(13, 0.03), false, bound); v != regressed {
		return fmt.Errorf("30%% higher norm_cpu_per_sim_s judged %s, want %s", v, regressed)
	}
	zero := make([]float64, 10)
	worse := append([]float64(nil), zero...)
	worse[3], worse[6], worse[8] = 0.05, 0.05, 0.1
	worse[1], worse[5], worse[9] = 0.05, 0.02, 0.02
	if v := compare(zero, worse, false, -1); v != regressed {
		return fmt.Errorf("higher fail_frac judged %s, want %s", v, regressed)
	}
	if v := compare(zero, zero, false, -1); v != same {
		return fmt.Errorf("equal fail_frac judged %s, want %s", v, same)
	}
	return nil
}

// splitmix is a tiny deterministic generator (SplitMix64) for workload
// choices and synthetic samples; it is independent of the simulator's RNG.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }
