package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tlacache/internal/cache"
	"tlacache/internal/telemetry"
	"tlacache/internal/trace"
	"tlacache/internal/workload"
)

// mixBytes runs mix inline or pipelined and returns the whole result:
// its JSON encoding plus the fields the encoding leaves out.
func mixBytes(t *testing.T, cfg Config, mix workload.Mix, pipe bool) (MixResult, []byte) {
	t.Helper()
	res, err := runMix(cfg, mix, pipe)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return res, data
}

// requireSameMix fails unless the inline and pipelined runs of cfg
// agree on every MixResult field.
func requireSameMix(t *testing.T, cfg Config, mix workload.Mix) {
	t.Helper()
	inRes, inline := mixBytes(t, cfg, mix, false)
	piRes, piped := mixBytes(t, cfg, mix, true)
	if !bytes.Equal(inline, piped) {
		t.Fatalf("pipelined run diverged from inline:\n--- inline ---\n%s\n--- pipelined ---\n%s", inline, piped)
	}
	if !reflect.DeepEqual(inRes, piRes) {
		t.Fatalf("pipelined run's telemetry counters diverged from inline:\n%+v\n%+v", inRes, piRes)
	}
}

// TestPipelineMatchesInline requires a pipelined run to reproduce the
// inline run byte for byte on every machine mode the allocation gates
// cover, for mixes and for isolation runs.
func TestPipelineMatchesInline(t *testing.T) {
	mix := workload.Mix{Name: "PIPE", Apps: []string{"sje", "lib"}}
	b, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range machineModes() {
		t.Run(mode.name, func(t *testing.T) {
			cfg := quickConfig(2, 6_000)
			mode.mut(&cfg.Hierarchy)
			requireSameMix(t, cfg, mix)

			inline, err := runIsolation(cfg, b, false)
			if err != nil {
				t.Fatal(err)
			}
			piped, err := runIsolation(cfg, b, true)
			if err != nil {
				t.Fatal(err)
			}
			if inline != piped {
				t.Fatalf("pipelined isolation run diverged from inline:\n%+v\n%+v", inline, piped)
			}
		})
	}
}

// TestPipelineBatchBoundaries covers budgets that end just before, on
// and just after a batch boundary, with and without warmup, so a
// hand-over that dropped, repeated or reordered an instruction at a
// boundary would show.
func TestPipelineBatchBoundaries(t *testing.T) {
	mix := workload.Mix{Name: "EDGE", Apps: []string{"h26", "lib"}}
	for _, n := range []uint64{1, batchLen - 1, batchLen, batchLen + 1} {
		for _, warmup := range []uint64{0, n} {
			t.Run(fmt.Sprintf("n=%d/warmup=%d", n, warmup), func(t *testing.T) {
				cfg := DefaultConfig(2)
				cfg.Instructions, cfg.Warmup = n, warmup
				requireSameMix(t, cfg, mix)
			})
		}
	}
}

// TestPipelineEngagement pins when RunMix and RunIsolation pipeline:
// over their own streams, at a budget of at least pipelineMinBudget,
// and while a P is left for the producer; and that release returns
// every P reserve took.
func TestPipelineEngagement(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Warmup, cfg.Instructions = pipelineMinBudget/2, pipelineMinBudget/2
	short := cfg
	short.Instructions--
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	base := busyPs.Load()
	if base != 0 {
		t.Fatalf("%d Ps reserved before the test", base)
	}
	cases := []struct {
		name  string
		cfg   Config
		owned bool
		procs int
		held  int64 // Ps other simulations hold
		want  bool
	}{
		{"spare P", cfg, true, 2, 0, true},
		{"caller streams", cfg, false, 2, 0, false},
		{"short budget", short, true, 2, 0, false},
		{"one P", cfg, true, 1, 0, false},
		{"P taken by another run", cfg, true, 2, 1, false},
		{"Ps to spare", cfg, true, 4, 2, true},
	}
	for _, c := range cases {
		runtime.GOMAXPROCS(c.procs)
		busyPs.Add(c.held)
		pipe := reserve(c.cfg, c.owned)
		release(pipe)
		busyPs.Add(-c.held)
		if pipe != c.want {
			t.Errorf("%s: pipelined = %v, want %v", c.name, pipe, c.want)
		}
		if got := busyPs.Load(); got != 0 {
			t.Fatalf("%s: %d Ps still reserved", c.name, got)
		}
	}
}

// unpooledGoroutines is the goroutine count not accounted for by
// parked producers.
func unpooledGoroutines() int {
	producerPool.Lock()
	defer producerPool.Unlock()
	return runtime.NumGoroutine() - len(producerPool.free)
}

// requireUnpooled fails unless unpooledGoroutines settles at or below
// limit. Producers released beyond the pool bound exit
// asynchronously, so it polls briefly.
func requireUnpooled(t *testing.T, limit int, after string) {
	t.Helper()
	n := unpooledGoroutines()
	for deadline := time.Now().Add(10 * time.Second); n > limit && time.Now().Before(deadline); n = unpooledGoroutines() {
		time.Sleep(time.Millisecond)
	}
	if n > limit {
		t.Fatalf("after %s: %d goroutines beyond parked producers, want at most %d", after, n, limit)
	}
}

// requireParked fails unless the pool respects its bound and every
// pooled producer is idle: out of its job, no job queued, every lane
// retired and holding no stream.
func requireParked(t *testing.T) {
	t.Helper()
	producerPool.Lock()
	defer producerPool.Unlock()
	if len(producerPool.free) > maxParkedProducers {
		t.Fatalf("%d parked producers, bound %d", len(producerPool.free), maxParkedProducers)
	}
	for i, p := range producerPool.free {
		if p.busy.Load() || len(p.jobs) != 0 {
			t.Fatalf("pooled producer %d is busy (%d jobs queued)", i, len(p.jobs))
		}
		for j, l := range p.lanes {
			if l.state.Load()&stopped == 0 || l.gen != nil {
				t.Fatalf("pooled producer %d lane %d not retired: state %#x, stream %v",
					i, j, l.state.Load(), l.gen)
			}
		}
	}
}

// corruptingSampler returns a sampler that calls hit at every sample.
func corruptingSampler(hit func()) *telemetry.Sampler {
	s := telemetry.NewSampler(1_000)
	s.Sink = func(telemetry.Sample) { hit() }
	return s
}

// failingRun runs a pipelined simulation on a machine outside the pool
// whose hierarchy the sampler corrupts, or whose sampler panics, and
// returns the run's streams and its error.
func failingRun(t *testing.T, panics bool) ([]*trace.Synthetic, error) {
	t.Helper()
	cfg := quickConfig(2, 20_000)
	cfg.InvariantEvery = 500
	m := freshMachine(t, cfg)
	cfg.Sampler = corruptingSampler(func() {
		if panics {
			panic("sampler sink failed")
		}
		// Drop every LLC line behind the L1s' backs: the next invariant
		// check finds inclusion broken.
		var lines []uint64
		m.h.LLC().ForEachValid(func(l cache.Line) { lines = append(lines, l.Addr) })
		for _, a := range lines {
			m.h.LLC().Invalidate(a)
		}
	})
	synths := make([]*trace.Synthetic, 2)
	streams := make([]trace.Generator, 2)
	for i, app := range []string{"sje", "lib"} {
		b, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		if synths[i], err = trace.NewSynthetic(b.Profile, cfg.Seed+uint64(i)); err != nil {
			t.Fatal(err)
		}
		streams[i] = synths[i]
	}
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		err = runMachine(cfg, m, streams, defaultEpoch, true)
	}()
	return synths, err
}

// TestPipelineProducerLifecycle checks that every run stops its
// producer — after success, after an error and after a panic — and
// that the pool bounds the parked ones. Under -race it also proves no
// producer touches a stream once its run has returned: the test reuses
// the streams straight away.
func TestPipelineProducerLifecycle(t *testing.T) {
	defer func(n int) { maxParkedProducers = n }(maxParkedProducers)
	maxParkedProducers = 3 // below the concurrent demand, so some producers exit
	// Start from an empty pool: earlier tests may have parked more
	// producers than the lowered bound.
	producerPool.Lock()
	base := runtime.NumGoroutine() - len(producerPool.free)
	for _, p := range producerPool.free {
		close(p.jobs)
	}
	producerPool.free = nil
	producerPool.Unlock()
	requireUnpooled(t, base, "draining the pool")
	cfg := quickConfig(2, 3_000)
	mix := workload.Mix{Name: "LEAK", Apps: []string{"sje", "mcf"}}
	for i := 0; i < 5; i++ {
		if _, err := runMix(cfg, mix, true); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := runMix(cfg, mix, true); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	requireUnpooled(t, base, "successful runs")
	requireParked(t)

	for _, panics := range []bool{false, true} {
		synths, err := failingRun(t, panics)
		if err == nil || panics != strings.HasPrefix(err.Error(), "panic") {
			t.Fatalf("panics=%v: run returned %v", panics, err)
		}
		// The run has returned, so its streams are ours again.
		var in trace.Instr
		for _, g := range synths {
			g.Next(&in)
			g.Reset()
		}
		requireUnpooled(t, base, err.Error())
		requireParked(t)
	}
}
