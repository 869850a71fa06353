package sim

import (
	"encoding/json"
	"expvar"
	"math"
	"reflect"
	"testing"

	"tlacache/internal/hierarchy"
	"tlacache/internal/telemetry"
	"tlacache/internal/workload"
)

// quickConfig shrinks the budget so integration tests stay fast while
// still exercising warmup and steady state.
func quickConfig(cores int, instructions uint64) Config {
	cfg := DefaultConfig(cores)
	cfg.Instructions = instructions
	cfg.Warmup = 2 * instructions
	return cfg
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig(2)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Instructions = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero budget accepted")
	}
	bad = cfg
	bad.Hierarchy.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad hierarchy accepted")
	}
	bad = cfg
	bad.CPU.Width = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad cpu accepted")
	}
}

func TestRunMixRejectsWrongArity(t *testing.T) {
	cfg := quickConfig(2, 1000)
	if _, err := RunMix(cfg, workload.Mix{Name: "ONE", Apps: []string{"dea"}}); err == nil {
		t.Error("1-app mix accepted on 2 cores")
	}
	if _, err := RunMix(cfg, workload.Mix{Name: "BAD", Apps: []string{"dea", "nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunMixBasics(t *testing.T) {
	cfg := quickConfig(2, 50_000)
	res, err := RunMix(cfg, workload.Mix{Name: "T", Apps: []string{"dea", "mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 2 {
		t.Fatalf("apps = %d", len(res.Apps))
	}
	for i, a := range res.Apps {
		if a.Instructions != cfg.Instructions {
			t.Errorf("app %d instructions = %d", i, a.Instructions)
		}
		if a.Cycles == 0 || a.IPC <= 0 || a.IPC > 4 {
			t.Errorf("app %d: cycles=%d ipc=%v", i, a.Cycles, a.IPC)
		}
		if a.L1I.Accesses != cfg.Instructions {
			t.Errorf("app %d L1I accesses = %d, want %d (one fetch per instruction)",
				i, a.L1I.Accesses, cfg.Instructions)
		}
	}
	if res.Throughput != res.Apps[0].IPC+res.Apps[1].IPC {
		t.Error("throughput is not the IPC sum")
	}
	// The CCF app (dea) must run much faster than the thrashing mcf.
	if res.Apps[0].IPC < 2*res.Apps[1].IPC {
		t.Errorf("dea IPC %.2f not >> mcf IPC %.2f", res.Apps[0].IPC, res.Apps[1].IPC)
	}
}

func TestRunMixDeterministic(t *testing.T) {
	cfg := quickConfig(2, 30_000)
	mix := workload.Mix{Name: "D", Apps: []string{"sje", "lib"}}
	a, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if a.Traffic != b.Traffic || a.Throughput != b.Throughput {
		t.Fatal("identical runs diverged")
	}
	for i := range a.Apps {
		if a.Apps[i] != b.Apps[i] {
			t.Fatalf("app %d diverged", i)
		}
	}
}

func TestSameBenchmarkTwiceUsesDistinctSeeds(t *testing.T) {
	cfg := quickConfig(2, 30_000)
	res, err := RunMix(cfg, workload.Mix{Name: "HOMO", Apps: []string{"mcf", "mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	// Address spaces are disjoint, so the two instances compete but
	// never share lines; both must make progress.
	if res.Apps[0].IPC <= 0 || res.Apps[1].IPC <= 0 {
		t.Fatal("homogeneous mix stalled")
	}
}

func TestRunIsolation(t *testing.T) {
	cfg := quickConfig(2, 50_000)
	b, err := workload.ByName("dea")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunIsolation(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	// A CCF app in isolation: low L2 MPKI (a little compulsory-miss
	// residue remains at this short window), high IPC.
	if res.L2MPKI > 3 {
		t.Errorf("dea isolated L2 MPKI = %.2f, want < 3", res.L2MPKI)
	}
	if res.IPC < 2 {
		t.Errorf("dea isolated IPC = %.2f, want > 2", res.IPC)
	}
}

// TestInclusionVictimsAppearAndQBSRemovesThem is the paper's core
// claim at integration scale: a CCF+LLCT mix on the inclusive baseline
// produces inclusion victims; QBS eliminates nearly all of them and
// recovers throughput comparable to non-inclusion.
func TestInclusionVictimsAppearAndQBSRemovesThem(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	mix := workload.Mix{Name: "CCF+LLCT", Apps: []string{"sje", "lib"}}
	const budget = 400_000

	base := quickConfig(2, budget)
	base.Warmup = 1_200_000 // let lib's stream fill the 2MB LLC
	baseRes, err := RunMix(base, mix)
	if err != nil {
		t.Fatal(err)
	}
	if baseRes.InclusionVictims == 0 {
		t.Fatal("inclusive baseline produced no inclusion victims on a CCF+LLCT mix")
	}

	qbs := base
	qbs.Hierarchy.TLA = hierarchy.TLAQBS
	qbsRes, err := RunMix(qbs, mix)
	if err != nil {
		t.Fatal(err)
	}
	if qbsRes.InclusionVictims*5 > baseRes.InclusionVictims {
		t.Errorf("QBS left %d/%d inclusion victims", qbsRes.InclusionVictims, baseRes.InclusionVictims)
	}

	noninc := base
	noninc.Hierarchy.Inclusion = hierarchy.NonInclusive
	nonincRes, err := RunMix(noninc, mix)
	if err != nil {
		t.Fatal(err)
	}

	if qbsRes.Throughput < baseRes.Throughput {
		t.Errorf("QBS throughput %.3f below baseline %.3f", qbsRes.Throughput, baseRes.Throughput)
	}
	if nonincRes.Throughput < baseRes.Throughput {
		t.Errorf("non-inclusive throughput %.3f below baseline %.3f", nonincRes.Throughput, baseRes.Throughput)
	}
	// QBS ~ non-inclusive (within a generous band at this budget).
	if math.Abs(qbsRes.Throughput-nonincRes.Throughput)/nonincRes.Throughput > 0.10 {
		t.Errorf("QBS %.3f vs non-inclusive %.3f differ by >10%%", qbsRes.Throughput, nonincRes.Throughput)
	}
	// Miss reduction: QBS must cut the mix's LLC misses vs baseline.
	if qbsRes.LLCMisses >= baseRes.LLCMisses {
		t.Errorf("QBS LLC misses %d not below baseline %d", qbsRes.LLCMisses, baseRes.LLCMisses)
	}
}

// TestSamplerVictimColumnSumsToAggregate is the telemetry contract the
// interval CSVs rely on: the per-interval inclusion-victim deltas sum
// exactly to the run's windowed aggregate, for any sampling interval —
// dividing the budget evenly, leaving a partial final interval, or
// larger than the whole budget.
func TestSamplerVictimColumnSumsToAggregate(t *testing.T) {
	mix := workload.Mix{Name: "CCF+LLCT", Apps: []string{"sje", "lib"}}
	for _, every := range []uint64{10_000, 17_000, 300_000} {
		cfg := quickConfig(2, 100_000)
		cfg.Warmup = 400_000
		cfg.Sampler = telemetry.NewSampler(every)
		res, err := RunMix(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		samples := cfg.Sampler.Samples()
		if len(samples) == 0 {
			t.Fatalf("every=%d: no samples", every)
		}
		if got := cfg.Sampler.TotalInclusionVictims(); got != res.InclusionVictims {
			t.Errorf("every=%d: sample victims sum to %d, aggregate is %d",
				every, got, res.InclusionVictims)
		}
		// Every core's last sample lands exactly on the budget.
		last := map[int]uint64{}
		for _, s := range samples {
			last[s.Core] = s.Instructions
		}
		for core, instr := range last {
			if instr != cfg.Instructions {
				t.Errorf("every=%d: core %d final sample at %d, want %d",
					every, core, instr, cfg.Instructions)
			}
		}
		// Occupancy is a fraction of LLC lines.
		for _, s := range samples {
			if s.LLCOccupancy < 0 || s.LLCOccupancy > 1 {
				t.Fatalf("every=%d: occupancy %v out of [0,1]", every, s.LLCOccupancy)
			}
		}
	}
}

// TestTelemetryObservesMeasurementWindow checks that the telemetry
// summary covers exactly the measurement window, like Traffic (which
// includes post-budget execution): its events equal the run's counters,
// and the TLA statistics restart at the warmup reset — a depth
// histogram that kept warmup chains would outgrow the windowed query
// count.
func TestTelemetryObservesMeasurementWindow(t *testing.T) {
	cfg := quickConfig(2, 60_000)
	cfg.Warmup = 400_000
	cfg.Hierarchy.LLCSize = 128 << 10
	mix := workload.Mix{Name: "Q", Apps: []string{"sje", "lib"}}
	for _, tla := range []hierarchy.TLAPolicy{hierarchy.TLAQBS, hierarchy.TLAECI} {
		cfg.Hierarchy.TLA = tla
		res, err := RunMix(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		s, tr := res.Telemetry(), res.Traffic
		if s.Events["qbs_query"] != tr.QBSQueries || s.Events["qbs_save"] != tr.QBSSaves ||
			s.Events["back_invalidate"] != tr.BackInvalidates || s.Events["eci_invalidate"] != tr.ECISent ||
			s.Events["eci_rescue"] != res.TLA.ECIRescues {
			t.Errorf("%s: events %v disagree with traffic %+v", tla, s.Events, tr)
		}
		switch d, r := s.QBSQueryDepth, s.ECIRescueDistance; tla {
		case hierarchy.TLAQBS:
			if d == nil || d.Sum != tr.QBSQueries {
				t.Errorf("query depths %+v do not partition %d windowed queries", d, tr.QBSQueries)
			}
		case hierarchy.TLAECI:
			if r == nil || r.Count > res.TLA.ECIRescues {
				t.Errorf("rescue distances %+v for %d rescues", r, res.TLA.ECIRescues)
			}
		}
	}
}

// TestSummaryL2InclusionVictims checks the inclusive-L2 event reaches
// the summary as the whole-run total, which covers every app's window.
func TestSummaryL2InclusionVictims(t *testing.T) {
	cfg := quickConfig(2, 50_000)
	cfg.Hierarchy.L2Inclusive = true
	res, err := RunMix(cfg, workload.Mix{Name: "L2", Apps: []string{"sje", "lib"}})
	if err != nil {
		t.Fatal(err)
	}
	windowed := res.Apps[0].L2InclusionVictims + res.Apps[1].L2InclusionVictims
	if got := res.Telemetry().Events["l2_inclusion_victim"]; got == 0 || got != res.RunL2InclusionVictims || got < windowed {
		t.Errorf("l2_inclusion_victim = %d, run total %d, windowed %d", got, res.RunL2InclusionVictims, windowed)
	}
}

// TestTelemetrySummary checks the summary's shape: stable event
// names, zero-count events and empty histograms omitted, and the
// event total added once to the tla_probe_events expvar.
func TestTelemetrySummary(t *testing.T) {
	if b, _ := json.Marshal(new(MixResult).Telemetry()); string(b) != `{"events":{}}` {
		t.Errorf("empty summary = %s", b)
	}
	events := expvar.Get("tla_probe_events").(*expvar.Int)
	r := MixResult{RunInclusionVictims: 2}
	r.Traffic.QBSQueries, r.Traffic.QBSSaves = 5, 4
	r.TLA.QBSQueryDepth.Observe(5)
	r.TLA.ECIRescues = 1 // its ECI predates the window: no distance
	before := events.Value()
	s := r.Telemetry()
	if got := events.Value() - before; got != 12 {
		t.Errorf("tla_probe_events grew by %d, want 12", got)
	}
	want := map[string]uint64{"inclusion_victim": 2, "qbs_query": 5, "qbs_save": 4, "eci_rescue": 1}
	if !reflect.DeepEqual(s.Events, want) {
		t.Errorf("events = %v, want %v", s.Events, want)
	}
	if h := s.QBSQueryDepth; h == nil || h.Count != 1 || h.Sum != 5 || s.ECIRescueDistance != nil {
		t.Errorf("histograms = %+v, %+v", h, s.ECIRescueDistance)
	}
}

// TestTelemetryDoesNotPerturbResults is determinism across
// instrumentation: attaching a sampler must not change a single
// statistic of the simulated machine.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	cfg := quickConfig(2, 50_000)
	mix := workload.Mix{Name: "D", Apps: []string{"sje", "lib"}}
	plain, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sampler = telemetry.NewSampler(5_000)
	instrumented, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Traffic != instrumented.Traffic || plain.Throughput != instrumented.Throughput {
		t.Fatal("telemetry changed simulation results")
	}
	for i := range plain.Apps {
		if plain.Apps[i] != instrumented.Apps[i] {
			t.Fatalf("app %d diverged under telemetry", i)
		}
	}
}

// TestHomogeneousCCFMixSeesNoBenefit mirrors the paper's observation
// that CCF+CCF mixes have no inclusion-victim problem.
func TestHomogeneousCCFMixSeesNoBenefit(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	mix := workload.Mix{Name: "CCF+CCF", Apps: []string{"dea", "per"}}
	cfg := quickConfig(2, 200_000)
	res, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	perKI := float64(res.InclusionVictims) / float64(2*cfg.Instructions/1000)
	if perKI > 0.5 {
		t.Errorf("CCF+CCF mix suffered %.2f inclusion victims per KI", perKI)
	}
}
