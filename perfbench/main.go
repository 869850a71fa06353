// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the simulator's public layer functions directly
// (sim, experiments, service/api, hierarchy, cpu, workload) on one of
// four workloads, checks every operation's output, and prints one JSON
// result object as the last line of standard output.
//
//	perfbench -root <repo> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no instrumentation in the timed path. With --trace 1 it carries
// the per-layer metrics instead; see NOTES.md for their definitions and
// for how the layer costs add up to the end-to-end cost.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart anchors the provenance record's process-start-to-first-op
// time.
var processStart = time.Now()

// defaultSeed is the seed whose outputs are pinned by digest.
const defaultSeed = 1

// setupReps is how many times a workload's set-up runs; setup_s is the
// median.
const setupReps = 15

// metric is one named measurement in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its outcome.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool

	attempted, failed int
	metrics           map[string]metric
	firstOp           time.Time
}

// set records a metric.
func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and explains it on standard error.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %s\n", r.workload, fmt.Sprintf(format, args...))
}

// window is a run's measured time. Another op starts only if one as
// long as the last would still end inside it, so a run never overshoots
// its seconds by more than op-to-op variation; the first op always runs.
type window struct {
	start, last time.Time
	seconds     float64
	ops         int
}

func newWindow(seconds float64) *window { return &window{start: time.Now(), seconds: seconds} }

// more reports whether to start another op.
func (w *window) more() bool {
	now := time.Now()
	if w.ops > 0 && (now.Sub(w.start)+now.Sub(w.last)).Seconds() > w.seconds {
		return false
	}
	w.ops++
	w.last = now
	return true
}

// elapsed is the window's time so far, in seconds.
func (w *window) elapsed() float64 { return time.Since(w.start).Seconds() }

var workloads = map[string]func(*run) error{
	"pair-sje-lib":  func(r *run) error { return runPair(r, "sje", "lib") },
	"pair-h26-per":  func(r *run) error { return runPair(r, "h26", "per") },
	"sweep-figure8": runSweep,
	"daemon":        runDaemon,
}

func main() {
	root := flag.String("root", ".", "repository root (for the source-tree digest)")
	name := flag.String("workload", "", "workload: pair-sje-lib, pair-h26-per, sweep-figure8 or daemon")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload pair-sje-lib|pair-h26-per|sweep-figure8|daemon, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	r := &run{workload: *name, seed: *seed, seconds: *seconds, traced: *traced == 1, metrics: map[string]metric{}}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if r.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation completed\n", *name)
		os.Exit(1)
	}

	prov := provenance(*root, r)
	enc, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(enc))
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// provenance describes the machine, toolchain and source tree a result
// came from, so results from different machines are never compared.
func provenance(root string, r *run) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	p := map[string]any{
		"workload":      r.workload,
		"seed":          r.seed,
		"seconds":       r.seconds,
		"trace":         r.traced,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_tree":   treeDigest(root),
		"start_to_op_s": 0.0,
		"attempted":     r.attempted,
		"failed":        r.failed,
		"failed_ratio":  float64(r.failed) / float64(r.attempted),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"peak_rss_mb":   peakRSSMB(),
	}
	if !r.firstOp.IsZero() {
		p["start_to_op_s"] = r.firstOp.Sub(processStart).Seconds()
	}
	return p
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeDigest hashes every Go source and module file under root (minus
// build output), identifying the code measured when no VCS revision is
// stamped into the binary.
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); !strings.HasSuffix(n, ".go") && n != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// liveHeapMB collects garbage and returns the heap still in use: what
// the process retains between ops (machine pools, the daemon's cache).
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// timeSetup runs setup setupReps times and records the median as
// setup_s. Each repetition must leave the process ready for the first
// timed operation.
func timeSetup(r *run, setup func() error) error {
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	r.set("setup_s", median(times), "s")
	return nil
}

// digest hashes v's JSON encoding.
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
