package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tlacache/internal/analysis"
)

// writeBadModule lays out a throwaway module whose single internal
// package carries one known violation per analyzer that applies to it.
func writeBadModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module badmod\n\ngo 1.22\n",
		// Line numbers matter: the test below pins panic(err) to line 6.
		"internal/widget/widget.go": `package widget

// Explode re-throws a bare error, which panicmsg forbids.
func Explode(err error) {
	if err != nil {
		panic(err)
	}
	panic("no prefix here")
}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRunFlagsFindings drives the real CLI entry point against a bad
// module: exit status 1, and the JSON findings carry the expected
// analyzer, file, and line.
func TestRunFlagsFindings(t *testing.T) {
	dir := writeBadModule(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("decoding findings: %v\n%s", err, stdout.String())
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(diags), diags)
	}
	want := filepath.Join("internal", "widget", "widget.go")
	bare := diags[0]
	if bare.Analyzer != "panicmsg" || bare.File != want || bare.Line != 6 {
		t.Errorf("finding 0 = %s, want panicmsg at %s:6", bare, want)
	}
	if !strings.Contains(bare.Message, "bare panic(err)") {
		t.Errorf("finding 0 message %q does not mention bare panic(err)", bare.Message)
	}
	missing := diags[1]
	if missing.Analyzer != "panicmsg" || missing.File != want || missing.Line != 8 {
		t.Errorf("finding 1 = %s, want panicmsg at %s:8", missing, want)
	}
}

// TestRunCleanModule checks exit 0 and an empty JSON array for a module
// with nothing to report.
func TestRunCleanModule(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module okmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := "package okmod\n\n// V is fine.\nvar V = 1\n"
	if err := os.WriteFile(filepath.Join(dir, "ok.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Fatalf("stdout = %q, want empty JSON array", got)
	}
}

// TestRunOutFile checks the -out sidecar used by CI to publish findings.
func TestRunOutFile(t *testing.T) {
	dir := writeBadModule(t)
	outPath := filepath.Join(t.TempDir(), "findings.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-out", outPath, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("run = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("reading -out file: %v", err)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(data, &diags); err != nil {
		t.Fatalf("decoding -out file: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("-out holds %d findings, want 2", len(diags))
	}
	// The text rendering on stdout must agree with the sidecar.
	if !strings.Contains(stdout.String(), "widget.go:6:") {
		t.Errorf("stdout %q lacks the widget.go:6 diagnostic", stdout.String())
	}
}

// TestRunUnknownCheck pins the usage-error exit code.
func TestRunUnknownCheck(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-checks", "nosuch", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
}

// wantRules is the rule set tlavet ships, in registry order. Adding or
// removing a check is a deliberate change to this list.
var wantRules = []string{
	"nondeterminism", "probeguard", "panicmsg", "counterdiscipline",
	"floatcmp", "hotpath", "lockdiscipline", "detflow", "keycover",
	"exhaustive", "resetcover",
}

// TestRunList checks that -list names exactly the shipped rule set,
// each check with its default-enabled status and analysis scope.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	out := stdout.String()
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	if !slices.Equal(listed, wantRules) {
		t.Errorf("-list names %v, want %v", listed, wantRules)
	}
	for _, a := range analysis.Analyzers() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-list output lacks check %q:\n%s", a.Name, out)
		}
		if a.Doc == "" {
			t.Errorf("check %q registers with an empty Doc", a.Name)
		}
		if a.Help == "" {
			t.Errorf("check %q registers with no Help text (required for SARIF rule metadata)", a.Name)
		}
	}
	if !strings.Contains(out, "[default, module]") {
		t.Errorf("-list does not mark any interprocedural check:\n%s", out)
	}
	if !strings.Contains(out, "[default, package]") {
		t.Errorf("-list does not mark any per-package check:\n%s", out)
	}
}

// TestRunSARIF checks the -sarif rendering: a valid SARIF 2.1.0 log on
// stdout with one result per finding and the rule table naming every
// registered check.
func TestRunSARIF(t *testing.T) {
	dir := writeBadModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-sarif", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("run = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("decoding SARIF: %v\n%s", err, stdout.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("SARIF version %q with %d runs, want 2.1.0 with 1", log.Version, len(log.Runs))
	}
	r := log.Runs[0]
	if r.Tool.Driver.Name != "tlavet" {
		t.Errorf("driver name %q, want tlavet", r.Tool.Driver.Name)
	}
	var ids []string
	for _, rule := range r.Tool.Driver.Rules {
		ids = append(ids, rule.ID)
	}
	if !slices.Equal(ids, wantRules) {
		t.Errorf("SARIF rule table names %v, want %v", ids, wantRules)
	}
	if len(r.Results) != 2 {
		t.Fatalf("SARIF holds %d results, want 2", len(r.Results))
	}
	first := r.Results[0]
	if first.RuleID != "panicmsg" {
		t.Errorf("result 0 ruleId %q, want panicmsg", first.RuleID)
	}
	loc := first.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/widget/widget.go" || loc.Region.StartLine != 6 {
		t.Errorf("result 0 at %s:%d, want internal/widget/widget.go:6",
			loc.ArtifactLocation.URI, loc.Region.StartLine)
	}
	// -json and -sarif together is a usage error.
	if code := run([]string{"-C", dir, "-json", "-sarif", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("-json -sarif run = %d, want 2", code)
	}
}

// TestRunFailStaleAllows drives the stale-suppression detector: an
// allow directive that suppresses a real finding is fine, and once the
// finding is gone the directive itself becomes the finding.
func TestRunFailStaleAllows(t *testing.T) {
	dir := writeBadModule(t)
	widget := filepath.Join(dir, "internal", "widget", "widget.go")
	suppressed := `package widget

// Explode re-throws a bare error, with both findings suppressed.
func Explode(err error) {
	if err != nil {
		//tlavet:allow panicmsg wrapping adds nothing here
		panic(err)
	}
	//tlavet:allow panicmsg prefix is implied by the only caller
	panic("no prefix here")
}
`
	if err := os.WriteFile(widget, []byte(suppressed), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-fail-stale-allows", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("suppressed run = %d, want 0 (stdout: %s stderr: %s)", code, stdout.String(), stderr.String())
	}

	// Fix the panics: the directives now suppress nothing and must be
	// reported as stale.
	fixed := `package widget

// Explode is now beyond reproach.
func Explode(err error) {
	if err != nil {
		//tlavet:allow panicmsg wrapping adds nothing here
		panic("widget: " + err.Error())
	}
}
`
	if err := os.WriteFile(widget, []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-fail-stale-allows", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("stale run = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "stale //tlavet:allow panicmsg") {
		t.Errorf("stdout %q does not report the stale directive", stdout.String())
	}
	// Without the flag the stale directive is tolerated.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("run without -fail-stale-allows = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	// A filtered run cannot prove a directive unused: usage error.
	if code := run([]string{"-C", dir, "-fail-stale-allows", "./internal/widget"}, &stdout, &stderr); code != 2 {
		t.Fatalf("filtered -fail-stale-allows run = %d, want 2", code)
	}
}
