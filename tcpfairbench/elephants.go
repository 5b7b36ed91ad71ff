package main

import (
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/units"
)

// pickElephants chooses, from the seed, one recorded 10 Gbps and one
// recorded 25 Gbps config of the elephant pool.
func pickElephants(c *corpus, seed uint64) []experiment.Result {
	rng := splitmix(seed)
	var out []experiment.Result
	for _, bw := range []units.Bandwidth{10 * units.GigabitPerSec, 25 * units.GigabitPerSec} {
		pool := elephantPool(c.tier(bw))
		out = append(out, pool[rng.next()%uint64(len(pool))])
	}
	return out
}

// elephantPool returns the tier's FIFO 1xBDP records of the loss-based
// pairings (CUBIC, Reno and H-TCP, no BBR), in corpus order. These fill
// the same buffer the same way, so drawing elephant configs from them lets
// the seed vary the science while the work and memory per run stay
// comparable across seeds.
func elephantPool(t tier) []experiment.Result {
	var out []experiment.Result
	for _, r := range t.results {
		c := r.Config
		if c.AQM == aqm.KindFIFO && c.QueueBDP == 1 && lossBased(c.Pairing.CCA1) && lossBased(c.Pairing.CCA2) {
			out = append(out, r)
		}
	}
	return out
}

func lossBased(n cca.Name) bool { return n == cca.Cubic || n == cca.Reno || n == cca.HTCP }

// runElephants replays the seed's 10 and 25 Gbps configs one at a time
// through experiment.Run, checking each against its corpus record.
func runElephants(r *run) error {
	err := r.measureSetup(15, func() (time.Duration, error) {
		return setupRecorded(r.opts.root, func(c *corpus) ([]experiment.Config, error) {
			return configsOf(pickElephants(c, r.opts.seed)), nil
		})
	})
	if err != nil {
		return err
	}
	c, err := loadCorpus(r.opts.root)
	if err != nil {
		return err
	}
	recs := pickElephants(c, r.opts.seed)
	for _, rec := range recs {
		r.note("config: %s (recorded %d events)", rec.Config.ID(), rec.Events)
	}
	return replayWorkload(r, configsOf(recs), func(i int, res experiment.Result) string {
		return corpusDiff(res, recs[i])
	})
}
