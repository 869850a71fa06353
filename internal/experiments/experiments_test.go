package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlacache/internal/hierarchy"
	"tlacache/internal/runner"
	"tlacache/internal/workload"
)

// fastOptions keep experiment tests quick: tiny budgets, two mixes.
func fastOptions() Options {
	return Options{Instructions: 20_000, Warmup: 40_000, Seed: 1}
}

func twoMixes() []workload.Mix { return workload.TableIIMixes()[:2] }

func TestOptionsValidate(t *testing.T) {
	o := DefaultOptions()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Options{}
	if err := bad.Validate(); err == nil {
		t.Error("zero-instruction options accepted")
	}
}

func TestRegistryAndByName(t *testing.T) {
	reg := Registry()
	if len(reg) != 19 {
		t.Fatalf("registry has %d entries, want 19", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.Name == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("incomplete registry entry %+v", e)
		}
		if seen[e.Name] {
			t.Errorf("duplicate registry entry %s", e.Name)
		}
		seen[e.Name] = true
		if _, err := ByName(e.Name); err != nil {
			t.Errorf("ByName(%s): %v", e.Name, err)
		}
	}
	for _, want := range []string{"table1", "table2", "figure2", "figure5", "figure6",
		"figure7", "figure8", "figure9", "figure10", "figure11"} {
		if !seen[want] {
			t.Errorf("registry missing %s", want)
		}
	}
	if _, err := ByName("figure99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestSpecsApplyCleanly(t *testing.T) {
	cases := []struct {
		spec  Spec
		check func(hierarchy.Config) bool
	}{
		{baseline(), func(c hierarchy.Config) bool {
			return c.Inclusion == hierarchy.Inclusive && c.TLA == hierarchy.TLANone
		}},
		{nonInclusive(), func(c hierarchy.Config) bool { return c.Inclusion == hierarchy.NonInclusive }},
		{exclusive(), func(c hierarchy.Config) bool { return c.Inclusion == hierarchy.Exclusive }},
		{tlh("TLH-L1", hierarchy.L1Caches), func(c hierarchy.Config) bool {
			return c.TLA == hierarchy.TLATLH && c.TLHSources == hierarchy.L1Caches && c.TLHPerMille == 1000
		}},
		{eci(), func(c hierarchy.Config) bool { return c.TLA == hierarchy.TLAECI }},
		{qbs("QBS", hierarchy.AllCaches, 2), func(c hierarchy.Config) bool {
			return c.TLA == hierarchy.TLAQBS && c.QBSMaxQueries == 2
		}},
	}
	for _, tc := range cases {
		cfg := hierarchy.DefaultConfig(2)
		tc.spec.Apply(&cfg)
		if !tc.check(cfg) {
			t.Errorf("spec %s did not configure as expected", tc.spec.Name)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("spec %s produced invalid config: %v", tc.spec.Name, err)
		}
	}
}

func TestRunMatrixShapeAndNormalisation(t *testing.T) {
	o := fastOptions()
	specs := []Spec{baseline(), nonInclusive()}
	m, err := runMatrix(o, 2, twoMixes(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.results) != 2 || len(m.results[0]) != 2 {
		t.Fatalf("matrix shape wrong")
	}
	for i := range m.mixes {
		if got := m.normThroughput(i, 0); got != 1.0 {
			t.Errorf("baseline normalised throughput = %v", got)
		}
		if v := m.normThroughput(i, 1); v <= 0 {
			t.Errorf("non-inclusive normalised throughput = %v", v)
		}
		if r := m.missReduction(i, 0); r != 0 {
			t.Errorf("baseline miss reduction = %v", r)
		}
	}
}

func TestRunMatrixProgressAndErrors(t *testing.T) {
	o := fastOptions()
	var buf bytes.Buffer
	o.Progress = runner.NewReporter(&buf)
	if _, err := runMatrix(o, 2, twoMixes(), []Spec{baseline()}, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MIX_00") {
		t.Error("no progress output")
	}
	if !strings.Contains(buf.String(), "/2]") {
		t.Errorf("progress lines lack completed/total counts:\n%s", buf.String())
	}
	// A mix with the wrong arity must surface as an error.
	bad := []workload.Mix{{Name: "BAD", Apps: []string{"dea"}}}
	if _, err := runMatrix(o, 2, bad, []Spec{baseline()}, nil); err == nil {
		t.Error("bad mix accepted")
	}
	zero := Options{}
	if _, err := runMatrix(zero, 2, twoMixes(), []Spec{baseline()}, nil); err == nil {
		t.Error("invalid options accepted")
	}
}

// TestRunMatrixSampling checks the observability wiring end to end:
// SampleEvery instruments every cell, interval CSV/JSONL pairs land
// under SampleDir, and telemetry summaries reach the stats collector.
func TestRunMatrixSampling(t *testing.T) {
	o := fastOptions()
	o.Stats = runner.NewCollector()
	o.SampleEvery = 5_000
	o.SampleDir = t.TempDir()
	mixes := twoMixes()
	specs := []Spec{baseline(), qbs("QBS", hierarchy.AllCaches, 0)}
	if _, err := runMatrix(o, 2, mixes, specs, nil); err != nil {
		t.Fatal(err)
	}
	for _, mix := range mixes {
		for _, spec := range specs {
			base := sanitizeName(mix.Name+"-"+spec.Name) + "-intervals"
			for _, ext := range []string{".csv", ".jsonl"} {
				fi, err := os.Stat(filepath.Join(o.SampleDir, base+ext))
				if err != nil {
					t.Fatalf("missing interval file: %v", err)
				}
				if fi.Size() == 0 {
					t.Errorf("%s%s is empty", base, ext)
				}
			}
		}
	}
	sums := o.Stats.Telemetry()
	if len(sums) != len(mixes)*len(specs) {
		t.Fatalf("collector holds %d summaries, want %d", len(sums), len(mixes)*len(specs))
	}
	for _, s := range sums {
		if !strings.Contains(s.Name, "/") {
			t.Errorf("summary name %q not mix/spec", s.Name)
		}
	}
}

func TestSanitizeName(t *testing.T) {
	if got := sanitizeName("MIX_00/QBS (L1 only)"); got != "MIX_00-QBS--L1-only-" {
		t.Errorf("sanitizeName = %q", got)
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := Table{
		ID:      "t",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"x", "1"}, {"y", "2"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== t: demo ==", "a  b", "x  1", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "a,b\nx,1\ny,2\n" {
		t.Errorf("CSV = %q", buf.String())
	}
}

func TestTable2Static(t *testing.T) {
	tables, err := Table2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 12 {
		t.Fatalf("table2 shape wrong: %+v", tables)
	}
}

// TestTable2CSVRoundTrip parses table2's CSV back: its apps cells
// ("bzi,wrf") hold the delimiter, so they must come back as one field,
// leaving every record as wide as the header.
func TestTable2CSVRoundTrip(t *testing.T) {
	tables, err := Table2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tables[0].WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 13 {
		t.Fatalf("%d records, want a header and 12 mixes", len(records))
	}
	for i, rec := range records {
		if len(rec) != 3 {
			t.Errorf("record %d has %d fields, want 3: %q", i, len(rec), rec)
		}
	}
	if got := records[1][1]; got != "bzi,wrf" {
		t.Errorf("MIX_00 apps = %q, want %q", got, "bzi,wrf")
	}
}

// TestFiguresSmoke runs every registered experiment at a tiny budget
// and verifies well-formed output. Numbers at this scale are
// meaningless; structure is what's checked.
func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test runs every experiment")
	}
	o := Options{Instructions: 6_000, Warmup: 8_000, Seed: 1}
	for _, e := range Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			tables, err := e.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range tables {
				if tab.ID == "" || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
					t.Errorf("malformed table %+v", tab.ID)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("%s: row width %d != %d columns", tab.ID, len(row), len(tab.Columns))
					}
				}
				var buf bytes.Buffer
				if err := tab.Render(&buf); err != nil {
					t.Errorf("%s render: %v", tab.ID, err)
				}
			}
		})
	}
}

func TestScurvePointsSortedAndComplete(t *testing.T) {
	o := fastOptions()
	specs := []Spec{baseline(), eci(), nonInclusive()}
	m, err := runMatrix(o, 2, workload.TableIIMixes()[:4], specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := scurvePoints("x", "demo", m, m.normThroughput)
	if len(pts.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(pts.Rows))
	}
	if len(pts.Columns) != 3 { // workload + 2 non-baseline specs
		t.Fatalf("columns = %v", pts.Columns)
	}
	// Sorted ascending by the last column.
	var prev float64 = -1
	for _, row := range pts.Rows {
		var v float64
		if _, err := fmt.Sscanf(row[len(row)-1], "%f", &v); err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("points not sorted: %v", pts.Rows)
		}
		prev = v
	}
}

func TestSnoopFilterExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	tables, err := SnoopFilter(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 4 {
		t.Fatalf("snoopfilter shape wrong: %+v", tables)
	}
	// Row 0 is the inclusive baseline: zero snoops. Rows for
	// non-inclusive and exclusive must be nonzero.
	if tables[0].Rows[0][2] != "0.00" {
		t.Errorf("inclusive snoops = %s, want 0.00", tables[0].Rows[0][2])
	}
	if tables[0].Rows[1][2] != "0.00" {
		t.Errorf("QBS snoops = %s, want 0.00", tables[0].Rows[1][2])
	}
	if tables[0].Rows[2][2] == "0.00" {
		t.Error("non-inclusive reported zero snoops")
	}
}

func TestDirectoryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	tables, err := Directory(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 4 {
		t.Fatalf("directory shape wrong: %+v", tables)
	}
}

func TestPctFormatting(t *testing.T) {
	if got := pct(1.052); got != "+5.2%" {
		t.Errorf("pct = %q", got)
	}
	if got := pct(0.98); got != "-2.0%" {
		t.Errorf("pct = %q", got)
	}
	if got := f3(1.23456); got != "1.235" {
		t.Errorf("f3 = %q", got)
	}
}
