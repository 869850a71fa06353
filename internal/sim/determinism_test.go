package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"tlacache/internal/hierarchy"
	"tlacache/internal/runner"
	"tlacache/internal/workload"
)

// runBatch executes the same three-policy batch under the given
// GOMAXPROCS and returns the marshaled results plus the run manifest.
func runBatch(t *testing.T, procs int) ([]byte, runner.Manifest) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)

	variants := []struct {
		name string
		tla  hierarchy.TLAPolicy
	}{
		{"baseline", hierarchy.TLANone},
		{"tlh", hierarchy.TLATLH},
		{"qbs", hierarchy.TLAQBS},
	}
	jobs := make([]runner.Job[MixResult], 0, len(variants))
	for _, v := range variants {
		cfg := quickConfig(2, 30_000)
		cfg.Hierarchy.TLA = v.tla
		// The budget crosses the pipeline threshold, so GOMAXPROCS 1
		// runs the generators inline and GOMAXPROCS 8, with Ps to
		// spare for three producers, on producers.
		if cfg.Warmup+cfg.Instructions < pipelineMinBudget {
			t.Fatalf("budget %d does not reach the pipeline threshold", cfg.Warmup+cfg.Instructions)
		}
		jobs = append(jobs, runner.Job[MixResult]{
			Name: v.name,
			Work: 2 * (cfg.Instructions + cfg.Warmup),
			Run: func(ctx context.Context) (MixResult, error) {
				return RunMix(cfg, workload.Mix{Name: "DET", Apps: []string{"sje", "lib"}})
			},
		})
	}

	coll := runner.NewCollector()
	start := time.Now()
	results, err := runner.Run(context.Background(), runner.Config{Workers: 4, Collector: coll}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]MixResult, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", jobs[i].Name, r.Err)
		}
		vals[i] = r.Value
	}
	data, err := json.MarshalIndent(vals, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data, coll.Manifest("determinism", 4, time.Since(start))
}

// normalizeManifest zeroes the fields that legitimately vary between
// runs — host environment and wall-clock timing — leaving everything
// that must be reproducible.
func normalizeManifest(m *runner.Manifest) {
	m.Env = runner.EnvInfo{}
	m.TotalWallSeconds = 0
	m.AggregateIPS = 0
	for i := range m.Jobs {
		m.Jobs[i].WallSeconds = 0
		m.Jobs[i].IPS = 0
	}
}

// TestDeterminismAcrossGOMAXPROCS is the regression gate for the
// runner's core promise: simulation results are byte-identical no
// matter how the scheduler interleaves the worker pool, and whether
// the generators run inline (GOMAXPROCS 1) or on producers. Everything
// in the manifest except environment and timing must match too.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the same batch twice")
	}
	serial, serialMan := runBatch(t, 1)
	parallel, parallelMan := runBatch(t, 8)

	if !bytes.Equal(serial, parallel) {
		t.Errorf("results differ between GOMAXPROCS=1 and GOMAXPROCS=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}

	normalizeManifest(&serialMan)
	normalizeManifest(&parallelMan)
	sm, err := json.Marshal(serialMan)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := json.Marshal(parallelMan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sm, pm) {
		t.Errorf("manifests differ beyond env/timing:\n--- serial ---\n%s\n--- parallel ---\n%s", sm, pm)
	}
}
