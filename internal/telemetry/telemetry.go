// Package telemetry is the simulator's low-overhead instrumentation
// layer: the Summary that run manifests carry for the
// temporal-locality events the paper's evaluation revolves around
// (inclusion victims, back-invalidations, ECI early-invalidates and
// rescue hits, QBS queries), the fixed-bucket Histogram in which the
// hierarchy counts the QBS query-depth and ECI rescue-distance
// distributions, an interval sampler that turns a run into per-core
// time series (internal/sim feeds it), the LLC victim-decision tracer,
// and a live pprof/expvar debug endpoint for profiling long parallel
// sweeps.
//
// The event counts themselves are ordinary hierarchy statistics,
// always on and allocation-free; only the sampler and the decision
// tracer are opt-in observers, costing one nil check per committed
// instruction and per LLC victim choice when off.
package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Summary is the JSON-ready digest of one run's cache-hierarchy events,
// embedded into run manifests by internal/runner and internal/service.
// internal/sim derives it from the hierarchy's counters
// (sim.MixResult.Telemetry).
type Summary struct {
	// Name identifies the run the summary describes, e.g. "MIX_04/QBS".
	Name string `json:"name,omitempty"`
	// Events maps event names to fire counts; zero-count events are
	// omitted.
	Events map[string]uint64 `json:"events"`
	// QBSQueryDepth summarises the queries-per-eviction distribution.
	QBSQueryDepth *HistogramSummary `json:"qbs_query_depth,omitempty"`
	// ECIRescueDistance summarises how many ECI invalidations separated
	// each early-invalidation from its rescuing LLC hit.
	ECIRescueDistance *HistogramSummary `json:"eci_rescue_distance,omitempty"`
}

// Live introspection counters, published under /debug/vars by
// ServeDebug. They aggregate across every run in the process; the
// events-per-second gauge is the process-lifetime average.
var (
	jobsCompleted  = expvar.NewInt("tla_jobs_completed")
	instructionsUp = expvar.NewInt("tla_instructions_simulated")
	probeEvents    = expvar.NewInt("tla_probe_events")
	processStart   = time.Now()
)

func init() {
	expvar.Publish("tla_events_per_second", expvar.Func(func() interface{} {
		secs := time.Since(processStart).Seconds()
		if secs <= 0 {
			return 0.0
		}
		return float64(probeEvents.Value()) / secs
	}))
}

// JobDone records one completed simulation job and its simulated
// instruction count for live introspection; internal/runner calls it as
// each job finishes.
func JobDone(instructions uint64) {
	jobsCompleted.Add(1)
	instructionsUp.Add(int64(instructions))
}

// JobsCompleted returns the process-wide completed-job count.
func JobsCompleted() int64 { return jobsCompleted.Value() }

// InstructionsSimulated returns the process-wide simulated-instruction
// count across completed jobs.
func InstructionsSimulated() int64 { return instructionsUp.Value() }

// EventsSummarized adds one run's hierarchy event total to the
// process-wide tla_probe_events counter; sim.MixResult.Telemetry calls
// it once per summarized run.
func EventsSummarized(n uint64) { probeEvents.Add(int64(n)) }

// ServeDebug starts an HTTP server on addr exposing net/http/pprof
// under /debug/pprof/ and the process expvars (including the tla_*
// counters above) under /debug/vars. It returns the bound address —
// pass ":0" to pick a free port — and the serving *http.Server so the
// caller owns its lifetime: CLIs may let it run until process exit,
// while daemons and tests must Close (or Shutdown) it instead of
// leaking the listener.
func ServeDebug(addr string) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: debug server: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // ends via the caller's Close/Shutdown
	return ln.Addr().String(), srv, nil
}
