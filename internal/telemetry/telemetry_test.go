package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if s := h.Summary(); s.Count != 0 || s.Buckets != nil {
		t.Fatalf("empty summary = %+v", s)
	}
	for _, v := range []uint64{0, 1, 1, 2, 5, 100} {
		h.Observe(v)
	}
	s := h.Summary()
	if s.Count != 6 || s.Sum != 109 || s.Min != 0 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Mean != 109.0/6 {
		t.Errorf("mean = %v", s.Mean)
	}
	var bucketTotal uint64
	for _, b := range s.Buckets {
		if b.Lo > b.Hi {
			t.Errorf("bucket %+v inverted", b)
		}
		bucketTotal += b.Count
	}
	if bucketTotal != s.Count {
		t.Errorf("buckets sum to %d, want %d", bucketTotal, s.Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1) // single-value buckets make quantiles exact
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 1 {
			t.Errorf("Quantile(%v) = %v, want 1", q, got)
		}
	}
	h.Observe(1000)
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("median = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("max quantile = %v, want 1000", got)
	}
	// Quantiles must be monotone in q.
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.1 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", q, v, prev)
		}
		prev = v
	}
}

func TestSamplerDeltas(t *testing.T) {
	s := NewSampler(1000)
	if s.Every() != 1000 {
		t.Fatalf("every = %d", s.Every())
	}
	s.Observe(0, 1000, 2000, 10, 3, 0.5)
	s.Observe(1, 1000, 4000, 50, 0, 0.5)
	s.Observe(0, 2000, 3000, 15, 7, 0.8)
	s.Observe(0, 2000, 3000, 15, 7, 0.8) // duplicate flush: ignored
	got := s.Samples()
	if len(got) != 3 {
		t.Fatalf("%d samples", len(got))
	}
	first, third := got[0], got[2]
	if first.Core != 0 || first.Interval != 0 || first.IPC != 0.5 || first.InclusionVictims != 3 {
		t.Fatalf("first sample = %+v", first)
	}
	if third.Interval != 1 || third.DeltaInstructions != 1000 || third.DeltaCycles != 1000 {
		t.Fatalf("third sample = %+v", third)
	}
	if third.IPC != 1.0 || third.InclusionVictims != 4 || third.LLCMPKI != 5 {
		t.Fatalf("third sample rates = %+v", third)
	}
	if third.VictimsPerMinst != 4000 {
		t.Errorf("victims/Minst = %v", third.VictimsPerMinst)
	}
	if s.TotalInclusionVictims() != 7 {
		t.Errorf("total victims = %d", s.TotalInclusionVictims())
	}
}

func TestNewSamplerZeroIsNil(t *testing.T) {
	if s := NewSampler(0); s != nil {
		t.Fatal("zero interval did not yield nil sampler")
	}
	var s *Sampler
	if s.Samples() != nil || s.TotalInclusionVictims() != 0 {
		t.Fatal("nil sampler accessors not safe")
	}
}

func TestSamplerWriters(t *testing.T) {
	s := NewSampler(100)
	s.Observe(0, 100, 200, 5, 1, 0.25)
	s.Observe(0, 200, 400, 9, 2, 0.5)

	var csv strings.Builder
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "interval,core,instructions") {
		t.Fatalf("csv = %q", csv.String())
	}

	var jsonl strings.Builder
	if err := s.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	var back Sample
	if err := json.Unmarshal([]byte(strings.Split(jsonl.String(), "\n")[0]), &back); err != nil {
		t.Fatal(err)
	}
	if back.Instructions != 100 || back.InclusionVictims != 1 {
		t.Fatalf("jsonl round-trip = %+v", back)
	}

	prefix := filepath.Join(t.TempDir(), "sub", "run-intervals")
	if err := s.WritePair(prefix); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".csv", ".jsonl"} {
		if b, err := os.ReadFile(prefix + ext); err != nil || len(b) == 0 {
			t.Errorf("%s: %v (%d bytes)", ext, err, len(b))
		}
	}
}

func TestJobDoneAndServeDebug(t *testing.T) {
	beforeJobs, beforeInstr := JobsCompleted(), InstructionsSimulated()
	JobDone(12345)
	if JobsCompleted() != beforeJobs+1 || InstructionsSimulated() != beforeInstr+12345 {
		t.Fatalf("JobDone counters: jobs %d->%d instr %d->%d",
			beforeJobs, JobsCompleted(), beforeInstr, InstructionsSimulated())
	}

	addr, srv, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	vars := get("/debug/vars")
	for _, want := range []string{"tla_jobs_completed", "tla_instructions_simulated", "tla_probe_events", "tla_events_per_second"} {
		if !strings.Contains(vars, want) {
			t.Errorf("/debug/vars missing %s", want)
		}
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/ index unexpected: %.80s", body)
	}
}
