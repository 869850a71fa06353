package service

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"tlacache/internal/telemetry"
)

func u64(v uint64) *uint64 { return &v }

func TestNormalizeDefaults(t *testing.T) {
	n, err := JobSpec{Apps: []string{"sje", "lib"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Policy != "baseline" || n.Seed != 1 ||
		n.Instructions != DefaultInstructions || n.Warmup == nil || *n.Warmup != DefaultWarmup {
		t.Errorf("defaults not applied: %+v", n)
	}
	// Normalisation is idempotent.
	again, err := n.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, k1, _ := SpecKey(n); true {
		if _, k2, _ := SpecKey(again); k1 != k2 {
			t.Errorf("normalize not idempotent: %s vs %s", k1, k2)
		}
	}
}

// A mix name and its explicit app list are the same request and must
// share one cache key.
func TestMixAndAppsShareKey(t *testing.T) {
	_, byMix, err := SpecKey(JobSpec{Mix: "MIX_00"})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := JobSpec{Mix: "MIX_00"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	_, byApps, err := SpecKey(JobSpec{Apps: norm.Apps})
	if err != nil {
		t.Fatal(err)
	}
	if byMix != byApps {
		t.Errorf("MIX_00 and its app list hash differently: %s vs %s", byMix, byApps)
	}
}

func TestSpecValidation(t *testing.T) {
	for name, spec := range map[string]JobSpec{
		"empty":         {},
		"both":          {Mix: "MIX_00", Apps: []string{"sje"}},
		"unknown-app":   {Apps: []string{"nope"}},
		"unknown-mix":   {Mix: "MIX_99"},
		"bad-policy":    {Apps: []string{"sje", "lib"}, Policy: "wat"},
		"bad-llc":       {Apps: []string{"sje", "lib"}, LLC: "huge"},
		"zero-measured": {Apps: []string{"sje", "lib"}, Instructions: 0, Warmup: u64(0)},
	} {
		t.Run(name, func(t *testing.T) {
			if name == "zero-measured" {
				// Zero instructions normalises to the default, so this
				// particular spec is actually fine — it documents that
				// explicit warmup 0 is legal.
				if _, _, err := SpecKey(spec); err != nil {
					t.Fatalf("explicit zero warmup should be legal: %v", err)
				}
				return
			}
			if _, _, err := SpecKey(spec); err == nil {
				t.Fatalf("spec %+v unexpectedly valid", spec)
			}
		})
	}
}

// Execute must be a pure function of the spec: two runs produce
// byte-identical deterministic sections (spec, result, telemetry).
func TestExecuteDeterministic(t *testing.T) {
	spec := JobSpec{Apps: []string{"sje", "lib"}, Policy: "qbs", Seed: 3,
		Instructions: 60_000, Warmup: u64(20_000)}
	m1, err := Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	det := func(m Manifest) string {
		m.Env = m1.Env // normalise the annotation fields
		m.WallSeconds = 0
		b, err := EncodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if d1, d2 := det(m1), det(m2); d1 != d2 {
		t.Errorf("Execute not deterministic:\n%s\nvs\n%s", d1, d2)
	}
	if m1.Key == "" || !strings.HasPrefix(m1.Key, KeyVersion+":") {
		t.Errorf("manifest key malformed: %q", m1.Key)
	}
	if m1.Result.Throughput <= 0 {
		t.Errorf("throughput %f not positive", m1.Result.Throughput)
	}
}

// The interval sink streams samples live and samples stay out of the
// manifest, so Interval must not perturb the key.
func TestExecuteIntervalSink(t *testing.T) {
	spec := JobSpec{Apps: []string{"sje", "lib"}, Seed: 2,
		Instructions: 40_000, Warmup: u64(0), Interval: 10_000}
	var got []telemetry.Sample
	m, err := Execute(spec, func(s telemetry.Sample) { got = append(got, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("sink received no samples")
	}
	plain := spec
	plain.Interval = 0
	_, kPlain, err := SpecKey(plain)
	if err != nil {
		t.Fatal(err)
	}
	if m.Key != kPlain {
		t.Errorf("interval perturbed the key: %s vs %s", m.Key, kPlain)
	}
	data, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "\"delta_instructions\"") {
		t.Error("interval samples leaked into the manifest")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	spec := JobSpec{Apps: []string{"sje", "lib"}, Instructions: 30_000, Warmup: u64(0)}
	m, err := Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Error("manifest misses trailing newline")
	}
	back, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Key != m.Key || back.Result.Throughput != m.Result.Throughput {
		t.Errorf("round trip lost data: %+v", back)
	}
	if !json.Valid(data) {
		t.Error("manifest is not valid JSON")
	}
}

func TestWork(t *testing.T) {
	s := JobSpec{Apps: []string{"a", "b"}, Instructions: 10, Warmup: u64(5)}
	if got := s.Work(); got != 30 {
		t.Errorf("Work = %d, want 30", got)
	}
}

func TestMixes(t *testing.T) {
	ms := Mixes()
	if len(ms) != 12 || ms[0] != "MIX_00" {
		t.Errorf("Mixes() = %v", ms)
	}
}

// Normalize must be idempotent: Execute re-normalizes defensively, so
// a normalized mix spec (which keeps both Mix and its resolved Apps)
// must re-validate cleanly. Regression: mix-name submissions to the
// daemon used to fail at execute time with "sets both mix and apps".
func TestNormalizeIdempotent(t *testing.T) {
	norm, err := JobSpec{Mix: "MIX_00"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	again, err := norm.Normalize()
	if err != nil {
		t.Fatalf("re-normalizing a normalized spec: %v", err)
	}
	if !reflect.DeepEqual(norm, again) {
		t.Errorf("normalization not idempotent:\n first %+v\nsecond %+v", norm, again)
	}
}

// FuzzJobSpec feeds arbitrary JSON to the daemon's request decoding
// path. For every body that decodes into a JobSpec and normalizes,
// normalization must be idempotent, SpecKey must be a pure function of
// the spec, and Resolve must return (possibly an error) without
// panicking.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"apps":["sje","lib"]}`,
		`{"mix":"MIX_00"}`,
		`{"mix":"MIX_00","apps":["sje"]}`,
		`{"mix":"MIX_99"}`,
		`{"apps":["nope"]}`,
		`{"apps":["sje","lib"],"policy":"wat"}`,
		`{"apps":["sje","lib"],"llc":"huge"}`,
		`{"apps":["sje","lib"],"policy":"qbs","seed":3,"instructions":60000,"warmup":20000}`,
		`{"apps":["sje","lib"],"warmup":0,"interval":10000}`,
		`{"apps":["sje","lib"],"llc":"128KB","no_prefetch":true,"policy":"eci"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		norm, err := spec.Normalize()
		if err != nil {
			return
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("re-normalizing %+v: %v", norm, err)
		}
		if !reflect.DeepEqual(norm, again) {
			t.Fatalf("normalization not idempotent:\n first %+v\nsecond %+v", norm, again)
		}
		_, k1, err1 := SpecKey(spec)
		_, k2, err2 := SpecKey(spec)
		if k1 != k2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("SpecKey not deterministic: %q (%v) vs %q (%v)", k1, err1, k2, err2)
		}
		_, _ = norm.Resolve()
	})
}

// goldenPolicies are the policies whose telemetry summaries
// testdata/telemetry_summary_golden.json pins: one per TLA mechanism
// plus the two non-TLA reference points.
var goldenPolicies = []string{"baseline", "tlh", "eci", "qbs", "qbs-modified", "non-inclusive"}

// TestTelemetrySummaryGolden pins the marshalled manifest telemetry
// section byte-for-byte for small sje,lib runs under every TLA
// mechanism. The 128KB LLC puts the short runs under enough pressure
// that each mechanism fires its events (the non-inclusive run fires
// none, pinning the absent section). The summary is part of the cached
// manifest, so its event names, omission rules and histogram digests
// must not drift.
func TestTelemetrySummaryGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/telemetry_summary_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]json.RawMessage
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(goldenPolicies) {
		t.Fatalf("golden file has %d policies, want %d", len(golden), len(goldenPolicies))
	}
	for _, p := range goldenPolicies {
		t.Run(p, func(t *testing.T) {
			want, ok := golden[p]
			if !ok {
				t.Fatalf("golden file has no %q entry", p)
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, want); err != nil {
				t.Fatal(err)
			}
			m, err := Execute(JobSpec{Apps: []string{"sje", "lib"}, Policy: p,
				Instructions: 50_000, Warmup: u64(200_000), LLC: "128KB"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(m.Telemetry)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, compact.Bytes()) {
				t.Errorf("telemetry summary drifted:\n got %s\nwant %s", got, compact.Bytes())
			}
		})
	}
}
