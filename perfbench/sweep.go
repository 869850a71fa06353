package main

import (
	"bytes"
	"fmt"
	"time"

	"tlacache/internal/experiments"
	"tlacache/internal/runner"
	"tlacache/internal/sim"
	"tlacache/internal/telemetry"
	"tlacache/internal/workload"
)

// The sweep-figure8 workload regenerates figure8 (12 Table II mixes x 7
// machine shapes) at a short budget with two runner workers, and
// renders its tables to CSV in memory.
const (
	sweepMeasured = 30_000
	sweepWarmup   = 50_000
	sweepWorkers  = 2
)

// figure8Policies name, in figure8's column order, the machine shapes
// of its cells; cli.ApplyPolicy builds the same hierarchy deltas as
// figure8's specs, which the traced run checks cell by cell.
var figure8Policies = []string{"baseline", "tlh", "tlh-l2", "eci", "qbs", "non-inclusive", "exclusive"}

// figure8 runs one regeneration and renders it, returning the tables,
// their CSV bytes and the render time.
func figure8(opts experiments.Options) ([]experiments.Table, []byte, time.Duration, error) {
	runFig, err := experiments.ByName("figure8")
	if err != nil {
		return nil, nil, 0, err
	}
	tables, err := runFig(opts)
	if err != nil {
		return nil, nil, 0, err
	}
	t := time.Now()
	var csv bytes.Buffer
	for i := range tables {
		if err := tables[i].WriteCSV(&csv); err != nil {
			return nil, nil, 0, err
		}
	}
	return tables, csv.Bytes(), time.Since(t), nil
}

// figure8Cells is the number of simulations behind figure8's main
// table: one per mix row (the last row is the mean) and spec column
// (the first two columns label the mix; the baseline has none).
func figure8Cells(t experiments.Table) int { return (len(t.Rows) - 1) * (len(t.Columns) - 1) }

func runSweep(r *run) error {
	opts := experiments.Options{Instructions: sweepMeasured, Warmup: sweepWarmup, Seed: r.seed, Workers: sweepWorkers}
	mix := workload.TableIIMixes()[0]
	if r.traced {
		cfg, err := simConfig("baseline", r.seed, sweepWarmup, sweepMeasured)
		if err != nil {
			return err
		}
		if err := setupProbe(r, cfg, mix); err != nil {
			return err
		}
		zero(r, serviceMetrics)
		return traceSweep(r, opts)
	}

	err := timeSetup(r, func() error {
		for _, p := range figure8Policies {
			cfg, err := simConfig(p, r.seed, sweepWarmup, sweepMeasured)
			if err != nil {
				return err
			}
			if err := coldBuild(cfg, mix); err != nil {
				return err
			}
			if err := fillPool(cfg, mix, sweepWorkers); err != nil {
				return err
			}
		}
		tiny := opts
		tiny.Instructions, tiny.Warmup = 1, 0
		_, _, _, err := figure8(tiny)
		return err
	})
	if err != nil {
		return err
	}

	r.firstOp = time.Now()
	var want string
	var lat, mips, allocs []float64
	w := newWindow(r.seconds)
	for w.more() {
		m0 := mallocs()
		t := time.Now()
		tables, csv, _, err := figure8(opts)
		d := time.Since(t)
		allocs = append(allocs, float64(mallocs()-m0))
		r.attempted++
		if err != nil {
			r.fail("%v", err)
			continue
		}
		budgeted := float64(figure8Cells(tables[0])) * 2 * (sweepWarmup + sweepMeasured)
		lat = append(lat, ms(d))
		mips = append(mips, budgeted/d.Seconds()/1e6)
		want = checkDigest(r, want, csv)
	}
	elapsed := w.elapsed()
	r.set("sim_mips", median(mips), "Minstr/s")
	r.set("op_p50_ms", median(lat), "ms")
	r.set("op_p90_ms", quantile(lat, 0.9), "ms")
	r.set("ops_per_s", float64(r.attempted)/elapsed, "1/s")
	r.set("allocs_per_op", median(allocs), "count")
	r.set("live_heap_mb", liveHeapMB(), "MB")
	return nil
}

// checkDigest fails the op when output's digest differs from the pinned
// one (at the default seed) or from the run's first op (want), and
// returns the run's reference digest.
func checkDigest(r *run, want string, output any) string {
	got := digest(output)
	if want == "" {
		if p := pinned[r.workload]; r.seed == defaultSeed && p != "" && got != p {
			r.fail("output digest %s, pinned %s", got, p)
		}
		fmt.Printf("digest %s seed %d: %s\n", r.workload, r.seed, got)
		return got
	}
	if got != want {
		r.fail("output digest %s differs from the run's first op %s", got, want)
	}
	return want
}

// traceSweep is the traced sweep run: each op regenerates figure8 with
// the runner's per-job statistics on, then splits every cell into
// layers and checks the split cells reproduce figure8's table.
func traceSweep(r *run, opts experiments.Options) error {
	var buf splitBuffers
	var acc splitSample
	var want string
	var jobMs, busy, render []float64
	jobs := 0
	r.firstOp = time.Now()
	for w := newWindow(r.seconds); w.more(); {
		r.attempted++
		o := opts
		o.Stats = runner.NewCollector()
		t := time.Now()
		tables, csv, rd, err := figure8(o)
		wall := time.Since(t).Seconds() - rd.Seconds()
		if err != nil {
			return err
		}
		want = checkDigest(r, want, csv)
		render = append(render, ms(rd))
		var sum float64
		stats := o.Stats.Jobs()
		for _, j := range stats {
			sum += j.WallSeconds
			jobMs = append(jobMs, 1000*j.WallSeconds)
		}
		jobs = len(stats)
		busy = append(busy, sum/(sweepWorkers*wall))

		fig := tables[0]
		for i, mix := range workload.TableIIMixes() {
			var base uint64
			for j, p := range figure8Policies {
				cfg, err := simConfig(p, r.seed, sweepWarmup, sweepMeasured)
				if err != nil {
					return err
				}
				s, err := split(cfg, mix, &buf)
				if err != nil {
					return fmt.Errorf("%s under %s: %w", mix.Name, p, err)
				}
				acc.add(s)
				if j == 0 {
					base = s.res.LLCMisses
					continue
				}
				cell := fmt.Sprintf("%.1f", missReduction(base, s.res.LLCMisses))
				if got := fig.Rows[i][j+1]; got != cell {
					r.fail("split cell %s/%s reduces misses by %s%%, figure8 says %s%%", mix.Name, p, cell, got)
				}
			}
		}
	}
	r.set("runner.jobs", float64(jobs), "count")
	r.set("runner.job_p50_ms", median(jobMs), "ms")
	r.set("runner.busy_ratio", median(busy), "ratio")
	r.set("experiments.render_ms", median(render), "ms")
	reportSplit(r, acc, r.attempted)
	return nil
}

// missReduction is figure8's cell: the percentage fewer LLC misses than
// the inclusive baseline.
func missReduction(base, misses uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (1 - float64(misses)/float64(base))
}

// fillPool leaves n machines of cfg's shape in sim's free list, the
// most n runner workers can hold at once, so the sweep's pools (and
// live heap) do not depend on how the workers happened to overlap. It
// nests n 1-instruction simulations in one goroutine: each starts the
// next from its sampler sink, so all n hold a machine at once.
func fillPool(cfg sim.Config, mix workload.Mix, n int) error {
	if n == 0 {
		return nil
	}
	c := cfg
	c.Instructions, c.Warmup = 1, 0
	c.Sampler = telemetry.NewSampler(1)
	var inner error
	nested := false
	c.Sampler.Sink = func(telemetry.Sample) {
		if !nested {
			nested = true
			inner = fillPool(cfg, mix, n-1)
		}
	}
	if _, err := sim.RunMix(c, mix); err != nil {
		return err
	}
	return inner
}
