package main

import (
	"fmt"
	"time"

	"tlacache/internal/cli"
	"tlacache/internal/cpu"
	"tlacache/internal/hierarchy"
	"tlacache/internal/sim"
	"tlacache/internal/workload"
)

// pinned holds each workload's output digest at defaultSeed: the
// MixResults of a pair op (baseline, then QBS) or figure8's CSV bytes.
// A digest change means the simulator's output changed.
var pinned = map[string]string{
	"pair-sje-lib":  "69a885379492910b3a8ec4ecdec530c50a869ea64cbd93060ef5079409673708",
	"pair-h26-per":  "b565766beca8cd2f6a6a0683a155a33eee3832025f35b3ae19b098cc9b60d410",
	"sweep-figure8": "da8f5db99a6311f06c8be6634a25dcd3715e57456313a1a813a270ecca1a4323",
}

// pairBudget is the per-core warmup and measured budget of a pair op.
const pairBudget = 1_000_000

// pairPolicies are the two machines of a pair op: the inclusive
// baseline, then QBS.
var pairPolicies = []string{"baseline", "qbs"}

// simConfig is the paper's 2-core machine with prefetching, under
// policy.
func simConfig(policy string, seed, warmup, measured uint64) (sim.Config, error) {
	cfg := sim.DefaultConfig(2)
	cfg.Instructions, cfg.Warmup, cfg.Seed = measured, warmup, seed
	cfg.Hierarchy.EnablePrefetch = true
	err := cli.ApplyPolicy(&cfg.Hierarchy, policy)
	return cfg, err
}

// coldBuild constructs, and discards, everything a run on cfg's machine
// needs from scratch: the hierarchy, the cores and the generators.
func coldBuild(cfg sim.Config, mix workload.Mix) error {
	if _, err := hierarchy.New(cfg.Hierarchy); err != nil {
		return err
	}
	for i := 0; i < cfg.Hierarchy.Cores; i++ {
		if _, err := cpu.New(cfg.CPU); err != nil {
			return err
		}
	}
	_, err := generators(cfg, mix)
	return err
}

// tinyRun is a 1-instruction, no-warmup sim.RunMix on cfg's machine:
// a fresh machine shape the first time, a pool acquire and Reset after.
func tinyRun(cfg sim.Config, mix workload.Mix) error {
	cfg.Instructions, cfg.Warmup = 1, 0
	_, err := sim.RunMix(cfg, mix)
	return err
}

// setupProbe records sim.setup_cold_ms (the first tinyRun on cfg's
// shape, which must not have run yet in this process) and
// sim.setup_pooled_ms (the median of repeated tinyRuns).
func setupProbe(r *run, cfg sim.Config, mix workload.Mix) error {
	t := time.Now()
	if err := tinyRun(cfg, mix); err != nil {
		return err
	}
	r.set("sim.setup_cold_ms", ms(time.Since(t)), "ms")
	var pooled []float64
	for i := 0; i < 20; i++ {
		t = time.Now()
		if err := tinyRun(cfg, mix); err != nil {
			return err
		}
		pooled = append(pooled, ms(time.Since(t)))
	}
	r.set("sim.setup_pooled_ms", median(pooled), "ms")
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runPair is the pair-<a>-<b> workload: each op runs the mix under the
// inclusive baseline and then under QBS, 1M warmup plus 1M measured
// instructions per core, in one goroutine.
func runPair(r *run, a, b string) error {
	mix := workload.Mix{Name: a + "," + b, Apps: []string{a, b}}
	cfgs := make([]sim.Config, len(pairPolicies))
	for i, p := range pairPolicies {
		cfg, err := simConfig(p, r.seed, pairBudget, pairBudget)
		if err != nil {
			return err
		}
		cfgs[i] = cfg
	}
	if r.traced {
		if err := setupProbe(r, cfgs[0], mix); err != nil {
			return err
		}
		zero(r, serviceMetrics)
		zero(r, runnerMetrics)
		return tracePair(r, cfgs, mix)
	}

	err := timeSetup(r, func() error {
		for _, cfg := range cfgs {
			if err := coldBuild(cfg, mix); err != nil {
				return err
			}
			if err := tinyRun(cfg, mix); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	op := func() ([]sim.MixResult, error) {
		out := make([]sim.MixResult, len(cfgs))
		for i, cfg := range cfgs {
			res, err := sim.RunMix(cfg, mix)
			if err != nil {
				return nil, fmt.Errorf("%s under %s: %w", mix.Name, pairPolicies[i], err)
			}
			out[i] = res
		}
		return out, nil
	}
	budgeted := float64(len(cfgs)) * 2 * 2 * pairBudget

	r.firstOp = time.Now()
	var want string
	var lat, mips, allocs []float64
	w := newWindow(r.seconds)
	for w.more() {
		m0 := mallocs()
		t := time.Now()
		res, err := op()
		d := time.Since(t)
		allocs = append(allocs, float64(mallocs()-m0))
		r.attempted++
		if err != nil {
			r.fail("%v", err)
			continue
		}
		lat = append(lat, ms(d))
		mips = append(mips, budgeted/d.Seconds()/1e6)
		want = checkDigest(r, want, res)
		if a == "sje" && b == "lib" {
			if msg := paperOrdering(res[0], res[1]); msg != "" {
				r.fail("%s", msg)
			}
		}
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

// paperOrdering checks the paper's result on an LLC-thrashing mix: the
// inclusive baseline suffers inclusion victims, QBS removes some of them
// and does not lose throughput.
func paperOrdering(base, qbs sim.MixResult) string {
	switch {
	case base.InclusionVictims == 0:
		return "baseline shows no inclusion victims"
	case qbs.InclusionVictims >= base.InclusionVictims:
		return fmt.Sprintf("QBS inclusion victims %d not below baseline %d", qbs.InclusionVictims, base.InclusionVictims)
	case qbs.Throughput < base.Throughput:
		return fmt.Sprintf("QBS throughput %.4f below baseline %.4f", qbs.Throughput, base.Throughput)
	}
	return ""
}

// tracePair is the traced pair run: every op splits both of its
// simulations into layers, and the per-layer metrics are accumulated
// over all ops.
func tracePair(r *run, cfgs []sim.Config, mix workload.Mix) error {
	var buf splitBuffers
	var acc splitSample
	var want string
	r.firstOp = time.Now()
	for w := newWindow(r.seconds); w.more(); {
		r.attempted++
		res := make([]sim.MixResult, len(cfgs))
		for i, cfg := range cfgs {
			s, err := split(cfg, mix, &buf)
			if err != nil {
				return fmt.Errorf("%s under %s: %w", mix.Name, pairPolicies[i], err)
			}
			acc.add(s)
			res[i] = s.res
		}
		want = checkDigest(r, want, res)
	}
	reportSplit(r, acc, r.attempted)
	return nil
}
