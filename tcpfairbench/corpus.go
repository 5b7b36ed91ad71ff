package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/experiment"
	"repro/internal/units"
)

// tierFiles are the recorded corpus files, one bandwidth tier each, in
// ascending bandwidth order.
var tierFiles = []string{"b100m", "b500m", "b1g", "b10g", "b25g"}

// tier is one recorded corpus file: every configuration of the scaled
// grid at one bottleneck bandwidth, with the duration it was swept at.
type tier struct {
	name     string
	bw       units.Bandwidth
	duration time.Duration
	results  []experiment.Result
}

// spec is the sweepd submission that re-requests the whole tier.
func (t tier) spec() experiment.GridSpec {
	return experiment.GridSpec{Bandwidths: t.bw.String(), Duration: t.duration.String()}
}

// corpus is the recorded sweep in results/, indexed by science identity.
type corpus struct {
	tiers []tier
	byKey map[string]experiment.Result
}

func loadCorpus(root string) (*corpus, error) {
	c := &corpus{byKey: make(map[string]experiment.Result)}
	for _, name := range tierFiles {
		rs, err := experiment.LoadFile(filepath.Join(root, "results", name+".json"))
		if err != nil {
			return nil, err
		}
		if len(rs.Results) == 0 {
			return nil, fmt.Errorf("corpus %s: no results", name)
		}
		first := rs.Results[0].Config
		t := tier{name: name, bw: first.Bottleneck, duration: first.Duration, results: rs.Results}
		for _, r := range rs.Results {
			if r.Config.Bottleneck != t.bw || r.Config.Duration != t.duration {
				return nil, fmt.Errorf("corpus %s: mixed tiers (%s)", name, r.Config.ID())
			}
			c.byKey[r.Config.Key()] = r
		}
		c.tiers = append(c.tiers, t)
	}
	return c, nil
}

// tier returns the tier recorded at bandwidth bw.
func (c *corpus) tier(bw units.Bandwidth) tier {
	for _, t := range c.tiers {
		if t.bw == bw {
			return t
		}
	}
	panic(fmt.Sprintf("no corpus tier at %s", bw))
}

// corpusDiff reports the first science field on which got departs from
// the recorded want, or "" when every recorded field matches bit for bit.
// Fields the corpus predates (flow Jain, peak queue, sojourn) are not
// compared.
func corpusDiff(got, want experiment.Result) string {
	switch {
	case got.Error != "":
		return "errored: " + got.Error
	case got.Events != want.Events:
		return fmt.Sprintf("events %d, recorded %d", got.Events, want.Events)
	case got.SenderBps != want.SenderBps:
		return fmt.Sprintf("sender_bps %v, recorded %v", got.SenderBps, want.SenderBps)
	case got.Jain != want.Jain:
		return fmt.Sprintf("jain %v, recorded %v", got.Jain, want.Jain)
	case got.Utilization != want.Utilization:
		return fmt.Sprintf("utilization %v, recorded %v", got.Utilization, want.Utilization)
	case got.Retransmits != want.Retransmits || got.TotalRetransmits != want.TotalRetransmits:
		return fmt.Sprintf("retransmits %v/%d, recorded %v/%d",
			got.Retransmits, got.TotalRetransmits, want.Retransmits, want.TotalRetransmits)
	case got.QueueDropped != want.QueueDropped || got.QueueMarked != want.QueueMarked:
		return fmt.Sprintf("queue drops/marks %d/%d, recorded %d/%d",
			got.QueueDropped, got.QueueMarked, want.QueueDropped, want.QueueMarked)
	}
	return ""
}

// fullDiff compares two results on every serialized field except the wall
// time and the observation-only audit bit: the whole science, FCT
// sketches and queue watermarks included.
func fullDiff(got, want experiment.Result) string {
	if got.Error != "" {
		return "errored: " + got.Error
	}
	enc := func(r experiment.Result) []byte {
		r.Wall = 0
		r.Config.Audit = false
		b, err := json.Marshal(r)
		if err != nil {
			return []byte(err.Error())
		}
		return b
	}
	a, b := enc(got), enc(want)
	if bytes.Equal(a, b) {
		return ""
	}
	if d := corpusDiff(got, want); d != "" {
		return d
	}
	return fmt.Sprintf("result bytes differ:\n  got  %s\n  want %s", a, b)
}

// gate tallies the correctness checks of one run: every config result
// compared with its reference, and every exact count that must repeat.
type gate struct {
	attempted int
	failed    int
	problems  []string
}

// check records one attempted config; a non-empty diff is a failure.
func (g *gate) check(id, diff string) {
	g.attempted++
	if diff != "" {
		g.failed++
		g.fail("%s: %s", id, diff)
	}
}

// fail records a problem that is not tied to one config result (a
// drifting exact count, a failed submission); it makes the run incorrect.
func (g *gate) fail(format string, args ...any) {
	if len(g.problems) < 20 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// exact checks that a count repeats exactly across the cycles of a run.
type exact map[string]uint64

func (e exact) record(g *gate, name string, v uint64) {
	if prev, ok := e[name]; ok && prev != v {
		g.fail("exact count %s drifted: %d, earlier %d", name, v, prev)
		return
	}
	e[name] = v
}

func (e exact) names() []string {
	out := make([]string, 0, len(e))
	for k := range e {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
