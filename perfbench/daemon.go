package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"tlacache/internal/service"
	"tlacache/internal/service/api"
	"tlacache/internal/service/cache"
	"tlacache/internal/sim"
	"tlacache/internal/workload"
)

// The daemon workload: an in-process api.Server (memory-only cache, two
// simulation workers) behind a loopback listener, driven by a closed
// loop of two clients. A client re-submits an already computed key (a
// hit) nine times in ten and a fresh key (a miss: a simulation and a
// cache write) otherwise; every round ends with both clients submitting
// the same fresh key together (coalesced).
const (
	daemonClients  = 2
	daemonWorkers  = 2
	hotKeys        = 16
	missEvery      = 10  // one request in missEvery is a fresh key
	roundRequests  = 100 // per client; the last one is the coalesced pair
	daemonMeasured = 20_000
)

// daemonApps and daemonPolicy are the simulated job of every request.
var (
	daemonApps   = []string{"sje", "lib"}
	daemonPolicy = "qbs"
)

// daemonSpec is the job with the given simulation seed.
func daemonSpec(seed uint64) service.JobSpec {
	warmup := uint64(0)
	return service.JobSpec{Apps: daemonApps, Policy: daemonPolicy, Seed: seed, Instructions: daemonMeasured, Warmup: &warmup}
}

// Seeds of the generated keys: the benchmark seed picks a disjoint
// block, in which hot keys, per-client fresh keys and coalesced keys
// take disjoint ranges.
func hotSeed(seed uint64, j int) uint64 { return (seed+1)<<24 | uint64(j) }
func freshSeed(seed uint64, client, n int) uint64 {
	return (seed+1)<<24 | 1<<20 | uint64(client)<<19 | uint64(n)
}
func coalescedSeed(seed uint64, round int) uint64 { return (seed+1)<<24 | 1<<23 | uint64(round) }

// daemon is one running server and its clients' connection pool.
type daemon struct {
	srv    *api.Server
	cache  *cache.Cache
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	hot    []hotKey
}

type hotKey struct {
	body []byte // request body
	key  string
	want []byte // the response body of the key's miss
}

// startDaemon starts a server and fills its hot keys.
func startDaemon(seed uint64) (*daemon, error) {
	c, err := cache.New(cache.Config{})
	if err != nil {
		return nil, err
	}
	srv, err := api.New(api.Config{Cache: c, Workers: daemonWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		cache:  c,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * daemonClients, DisableCompression: true}},
	}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	for j := 0; j < hotKeys; j++ {
		spec := daemonSpec(hotSeed(seed, j))
		_, key, err := service.SpecKey(spec)
		if err != nil {
			d.stop()
			return nil, err
		}
		body, _ := json.Marshal(spec)
		rp, err := d.submit(body, "miss")
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("warming key %d: %w", j, err)
		}
		d.hot = append(d.hot, hotKey{body: body, key: key, want: rp.body})
	}
	return d, nil
}

// stop shuts the server down and waits for its goroutines.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx) //nolint:errcheck // best effort; Drain below waits for jobs
	d.srv.Drain(ctx)   //nolint:errcheck // bounded by ctx
	<-d.served
	d.client.CloseIdleConnections()
}

// reply is one answered request.
type reply struct {
	verdict string
	body    []byte
	lat     time.Duration
}

// submit posts one job and reads the whole answer. want, when not
// empty, is the verdict the request must get.
func (d *daemon) submit(body []byte, want string) (reply, error) {
	t := time.Now()
	resp, err := d.client.Post(d.base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp := reply{verdict: resp.Header.Get(api.ResultHeader), body: data, lat: time.Since(t)}
	switch {
	case err != nil:
		return rp, err
	case resp.StatusCode != http.StatusOK:
		return rp, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	case want != "" && rp.verdict != want:
		return rp, fmt.Errorf("answered %q, want %q", rp.verdict, want)
	}
	return rp, nil
}

// loadStats is what the closed loop observed.
type loadStats struct {
	requests, failed        int
	hits, misses, coalesced int
	hitLat, missLat         []float64 // ms
	missBodies              [][]byte
	errs                    []string
	seconds                 float64 // the loop's measured time
}

func (a *loadStats) merge(b loadStats) {
	a.requests += b.requests
	a.failed += b.failed
	a.hits += b.hits
	a.misses += b.misses
	a.coalesced += b.coalesced
	a.hitLat = append(a.hitLat, b.hitLat...)
	a.missLat = append(a.missLat, b.missLat...)
	a.missBodies = append(a.missBodies, b.missBodies...)
	a.errs = append(a.errs, b.errs...)
}

// runClient runs one client's share of a round: roundRequests-1 single
// requests, then, after the barrier, its half of the coalesced pair.
func (d *daemon) runClient(seed uint64, id, round int, fresh *int, rng *rand.Rand, keepBodies bool, barrier *sync.WaitGroup, pair []reply, pairErr []error) loadStats {
	var st loadStats
	for i := 0; i < roundRequests-1; i++ {
		st.requests++
		if rng.IntN(missEvery) == 0 {
			body, _ := json.Marshal(daemonSpec(freshSeed(seed, id, *fresh)))
			*fresh++
			rp, err := d.submit(body, "miss")
			if err != nil {
				st.failed++
				st.errs = append(st.errs, "fresh key: "+err.Error())
				continue
			}
			st.misses++
			st.missLat = append(st.missLat, ms(rp.lat))
			if keepBodies {
				st.missBodies = append(st.missBodies, rp.body)
			}
			continue
		}
		h := d.hot[rng.IntN(len(d.hot))]
		rp, err := d.submit(h.body, "hit")
		if err == nil && !bytes.Equal(rp.body, h.want) {
			err = errors.New("hit body differs from the key's miss body")
		}
		if err != nil {
			st.failed++
			st.errs = append(st.errs, "hot key: "+err.Error())
			continue
		}
		st.hits++
		st.hitLat = append(st.hitLat, ms(rp.lat))
	}
	barrier.Done()
	barrier.Wait()
	st.requests++
	body, _ := json.Marshal(daemonSpec(coalescedSeed(seed, round)))
	pair[id], pairErr[id] = d.submit(body, "")
	return st
}

// load drives the closed loop for the given time, in whole rounds.
func (d *daemon) load(seed uint64, seconds float64, keepBodies bool) loadStats {
	var total loadStats
	rngs := make([]*rand.Rand, daemonClients)
	fresh := make([]int, daemonClients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewPCG(seed, uint64(i)))
	}
	w := newWindow(seconds)
	for round := 0; w.more(); round++ {
		var wg, barrier sync.WaitGroup
		stats := make([]loadStats, daemonClients)
		pair := make([]reply, daemonClients)
		pairErr := make([]error, daemonClients)
		barrier.Add(daemonClients)
		for id := 0; id < daemonClients; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				stats[id] = d.runClient(seed, id, round, &fresh[id], rngs[id], keepBodies, &barrier, pair, pairErr)
			}(id)
		}
		wg.Wait()
		for _, st := range stats {
			total.merge(st)
		}
		if err := checkPair(pair, pairErr); err != nil {
			total.failed += daemonClients
			total.errs = append(total.errs, "coalesced pair: "+err.Error())
			continue
		}
		for _, rp := range pair {
			switch rp.verdict {
			case "miss":
				total.misses++
			case "hit":
				total.hits++
			case "coalesced":
				total.coalesced++
			}
		}
	}
	total.seconds = w.elapsed()
	return total
}

// checkPair accepts two simultaneous submissions of one fresh key when
// exactly one ran the simulation, the other joined it (or, arriving
// late, hit its cached result), and both got the same bytes.
func checkPair(pair []reply, errs []error) error {
	if err := errors.Join(errs...); err != nil {
		return err
	}
	misses := 0
	for _, rp := range pair {
		switch rp.verdict {
		case "miss":
			misses++
		case "coalesced", "hit":
		default:
			return fmt.Errorf("unexpected verdict %q", rp.verdict)
		}
	}
	if misses != 1 {
		return fmt.Errorf("verdicts %q and %q: want exactly one miss", pair[0].verdict, pair[1].verdict)
	}
	if !bytes.Equal(pair[0].body, pair[1].body) {
		return errors.New("the two answers differ")
	}
	return nil
}

func runDaemon(r *run) error {
	if r.traced {
		return traceDaemon(r)
	}
	var d *daemon
	err := timeSetup(r, func() error {
		if d != nil {
			d.stop()
		}
		var err error
		d, err = startDaemon(r.seed)
		return err
	})
	if err != nil {
		return err
	}
	defer d.stop()

	r.firstOp = time.Now()
	before := mallocs()
	st := d.load(r.seed, r.seconds, false)
	allocs := mallocs() - before
	recordLoad(r, st)

	budgeted := float64(daemonSpec(0).Work())
	mips := make([]float64, len(st.missLat))
	for i, l := range st.missLat {
		mips[i] = budgeted / l / 1e3
	}
	r.set("sim_mips", median(mips), "Minstr/s")
	r.set("op_p50_ms", median(st.hitLat), "ms")
	r.set("op_p90_ms", quantile(st.hitLat, 0.9), "ms")
	r.set("ops_per_s", float64(st.requests)/st.seconds, "1/s")
	r.set("allocs_per_op", float64(allocs)/float64(st.requests), "count")
	r.set("live_heap_mb", liveHeapMB(), "MB")
	return nil
}

// recordLoad counts the closed loop's requests and failures.
func recordLoad(r *run, st loadStats) {
	r.attempted += st.requests
	for i, e := range st.errs {
		if i < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: daemon: FAILED: %s\n", e)
		}
	}
	r.failed += st.failed
}

// traceDaemon is the traced daemon run: the closed loop with every miss
// manifest kept, then each service layer timed on its own, a sampled
// manifest checked against a direct simulation, and the miss job split
// into simulator layers.
func traceDaemon(r *run) error {
	cfg, err := daemonSpec(hotSeed(r.seed, 0)).Resolve()
	if err != nil {
		return err
	}
	mix := workload.Mix{Name: "custom", Apps: daemonApps}
	if err := setupProbe(r, cfg, mix); err != nil {
		return err
	}
	zero(r, runnerMetrics)

	d, err := startDaemon(r.seed)
	if err != nil {
		return err
	}
	defer d.stop()
	r.firstOp = time.Now()
	st := d.load(r.seed, r.seconds/2, true)
	recordLoad(r, st)
	r.set("service.hits", float64(st.hits), "count")
	r.set("service.misses", float64(st.misses), "count")
	r.set("service.coalesced", float64(st.coalesced), "count")

	var wait, simulate, encode []float64
	for _, body := range st.missBodies {
		m, err := service.DecodeManifest(body)
		if err != nil || m.Phases == nil {
			r.fail("miss manifest without phases: %v", err)
			continue
		}
		wait = append(wait, 1000*m.Phases.AdmissionWaitSeconds)
		simulate = append(simulate, 1000*m.Phases.SimulateSeconds)
		encode = append(encode, 1000*m.Phases.EncodeSeconds)
	}
	r.set("service.miss_admission_wait_ms", median(wait), "ms")
	r.set("service.miss_simulate_ms", median(simulate), "ms")
	r.set("service.miss_encode_ms", median(encode), "ms")

	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		return err
	}
	var snap api.StatsSnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decoding /v1/stats: %w", err)
	}
	r.set("queue.rejections", float64(snap.Admission.Rejected), "count")

	// The service layers one at a time, each in batches.
	h := d.hot[0]
	var spec service.JobSpec
	if err := json.Unmarshal(h.body, &spec); err != nil {
		return err
	}
	r.set("service.key_us", batchMicros(r, func() error {
		_, key, err := service.SpecKey(spec)
		if err == nil && key != h.key {
			err = errors.New("SpecKey changed")
		}
		return err
	}), "us")
	r.set("service.cache_get_us", batchMicros(r, func() error {
		if _, ok := d.cache.Get(h.key); !ok {
			return errors.New("hot key missing from the cache")
		}
		return nil
	}), "us")
	handler := d.srv.Handler()
	handlerUs := batchMicros(r, func() error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(h.body)))
		if rec.Code != http.StatusOK || rec.Header().Get(api.ResultHeader) != "hit" || !bytes.Equal(rec.Body.Bytes(), h.want) {
			return fmt.Errorf("handler answered %d %q", rec.Code, rec.Header().Get(api.ResultHeader))
		}
		return nil
	})
	r.set("service.handler_hit_us", handlerUs, "us")
	hitUs := 1000 * median(st.hitLat)
	r.set("service.net_share", ratio(hitUs-handlerUs, hitUs), "ratio")

	// A sampled miss manifest must carry exactly what a direct
	// simulation of its spec produces.
	if len(st.missBodies) > 0 {
		m, err := service.DecodeManifest(st.missBodies[0])
		if err != nil {
			return err
		}
		c, err := m.Spec.Resolve()
		if err != nil {
			return err
		}
		direct, err := sim.RunMix(c, workload.Mix{Name: "custom", Apps: m.Spec.Apps})
		if err != nil {
			return err
		}
		if digest(direct) != digest(m.Result) {
			r.fail("manifest %s result differs from a direct sim.RunMix", m.Key)
		}
	}

	// The miss job's simulator layers, over fresh seeds, for the other
	// half of the measured time.
	var buf splitBuffers
	var acc splitSample
	splits := 0
	for w := newWindow(r.seconds / 2); w.more(); {
		c, err := daemonSpec(hotSeed(r.seed, hotKeys+splits)).Resolve()
		if err != nil {
			return err
		}
		s, err := split(c, mix, &buf)
		if err != nil {
			return err
		}
		acc.add(s)
		splits++
	}
	reportSplit(r, acc, splits)
	return nil
}

// batchMicros times op in batches and returns the median per-call time
// in microseconds. An error from op fails the run's op count and
// reports 0.
func batchMicros(r *run, op func() error) float64 {
	const batches, per = 21, 200
	var times []float64
	for b := 0; b < batches; b++ {
		t := time.Now()
		for i := 0; i < per; i++ {
			if err := op(); err != nil {
				r.fail("layer timing: %v", err)
				return 0
			}
		}
		times = append(times, float64(time.Since(t))/1e3/per)
	}
	return median(times)
}
