package main

// Layers a workload bypasses report 0 for each of their per-layer
// metrics, so every traced result carries the same metric names.

var serviceMetrics = [][2]string{
	{"service.key_us", "us"},
	{"service.cache_get_us", "us"},
	{"service.handler_hit_us", "us"},
	{"service.net_share", "ratio"},
	{"service.miss_admission_wait_ms", "ms"},
	{"service.miss_simulate_ms", "ms"},
	{"service.miss_encode_ms", "ms"},
	{"service.hits", "count"},
	{"service.misses", "count"},
	{"service.coalesced", "count"},
	{"queue.rejections", "count"},
}

var runnerMetrics = [][2]string{
	{"runner.jobs", "count"},
	{"runner.job_p50_ms", "ms"},
	{"runner.busy_ratio", "ratio"},
	{"experiments.render_ms", "ms"},
}

func zero(r *run, metrics [][2]string) {
	for _, m := range metrics {
		r.set(m[0], 0, m[1])
	}
}
