package main

import (
	"fmt"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/flows"
	"repro/internal/units"
)

// miceSpec is the open-loop population of mice-churn: Poisson arrivals
// every 20 ms on average (about 600 connections per run), lognormal sizes
// between the preset's 64 KB and 2 MB percentiles.
const miceSpec = "mice:arrival=20ms"

// miceConfigs derives mice-churn's two configs from the recorded 1 Gbps
// CUBIC-vs-CUBIC FIFO 2xBDP config: the long-running flows plus the mice
// population with the seed as replica seed, and its SoloFCT baseline.
func miceConfigs(c *corpus, seed uint64) ([]experiment.Config, error) {
	spec, err := flows.Parse(miceSpec)
	if err != nil {
		return nil, err
	}
	for _, rec := range c.tier(units.GigabitPerSec).results {
		cfg := rec.Config
		if cfg.Pairing == (experiment.Pairing{CCA1: cca.Cubic, CCA2: cca.Cubic}) &&
			cfg.AQM == aqm.KindFIFO && cfg.QueueBDP == 2 {
			cfg.Seed = seed
			cfg.Flows = spec
			solo := cfg
			solo.SoloFCT = true
			return []experiment.Config{cfg, solo}, nil
		}
	}
	return nil, fmt.Errorf("corpus has no 1 Gbps cubic-vs-cubic FIFO 2xBDP record")
}

// runMice runs the churn config and its solo baseline one at a time. The
// reference for every result is its audit-armed twin: auditing observes
// without altering the simulation, so the two must be identical.
func runMice(r *run) error {
	err := r.measureSetup(15, func() (time.Duration, error) {
		return setupRecorded(r.opts.root, func(c *corpus) ([]experiment.Config, error) {
			return miceConfigs(c, r.opts.seed)
		})
	})
	if err != nil {
		return err
	}
	c, err := loadCorpus(r.opts.root)
	if err != nil {
		return err
	}
	cfgs, err := miceConfigs(c, r.opts.seed)
	if err != nil {
		return err
	}
	twins := make([]experiment.Result, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Audit = true
		res, err := experiment.Run(cfg)
		if err != nil {
			res.Error = err.Error()
		}
		twins[i] = res
		diff := ""
		if res.Error != "" {
			diff = "audited twin errored: " + res.Error
		}
		r.gate.check(cfg.ID()+" (audited twin)", diff)
		r.note("config: %s, audited twin opened %d and completed %d connections", cfg.ID(),
			res.FCT.Opened, res.FCT.Completed)
	}
	return replayWorkload(r, cfgs, func(i int, res experiment.Result) string {
		return fullDiff(res, twins[i])
	})
}
