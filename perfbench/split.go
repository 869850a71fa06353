package main

import (
	"fmt"
	"time"

	"tlacache/internal/cpu"
	"tlacache/internal/hierarchy"
	"tlacache/internal/sim"
	"tlacache/internal/trace"
	"tlacache/internal/workload"
)

// The exact layer split. One simulation (cfg, mix) is run five ways:
//
//  1. e2e: sim.RunMix, untouched — the reference result and cost.
//  2. record: sim.RunGenerators over the same synthetic streams, each
//     wrapped so that it keeps every instruction it hands out and the
//     order in which cores ask for them (the schedule). Its result must
//     equal the e2e result; its cost against e2e is the tracing overhead.
//  3. generator: trace.Synthetic.Next alone, for exactly the number of
//     instructions each core executed.
//  4. replay: sim.RunGenerators over the recorded streams — the whole
//     simulator except the generator.
//  5. hierarchy-only and cpu-only: the recorded schedule replayed into a
//     fresh hierarchy.New (IFetchMemoHit/AccessAt) and then into fresh
//     cpu.Cores fed the recorded latencies. Their per-core counters,
//     cycles and traffic must equal the e2e result exactly, which proves
//     the two passes did the same work as the real run.
//
// All times are reported per executed instruction, so that
// e2e = generator + replay + residual and
// replay = hierarchy + cpu + interleave, by construction.

// coreSpacing mirrors sim's per-core address-space offset; the
// hierarchy-only pass's exact-counter check fails if it drifts.
const coreSpacing = uint64(1) << 46

// opShift places an instruction's trace.Op in the top bits of its
// recorded data address; synthetic addresses stay far below.
const opShift = 62

// packed is one recorded instruction.
type packed struct{ pc, addr uint64 }

// stream is a recorded instruction stream, stored in fixed-size chunks
// so that recording never copies what it already holds.
type stream struct {
	chunks [][]packed
	n      int
}

const chunkShift = 16

func (s *stream) push(p packed) {
	ci := s.n >> chunkShift
	if ci == len(s.chunks) {
		s.chunks = append(s.chunks, make([]packed, 1<<chunkShift))
	}
	s.chunks[ci][s.n&(1<<chunkShift-1)] = p
	s.n++
}

func (s *stream) at(i int) packed { return s.chunks[i>>chunkShift][i&(1<<chunkShift-1)] }

// recorder hands out a core's synthetic stream and keeps a copy of it.
type recorder struct {
	gen    trace.Generator
	core   uint8
	stream *stream
	sched  *[]uint8
	wide   bool // an address reached the op bits
}

func (g *recorder) Name() string { return g.gen.Name() }
func (g *recorder) Reset()       { g.gen.Reset(); g.stream.n = 0 }
func (g *recorder) Next(in *trace.Instr) {
	g.gen.Next(in)
	g.wide = g.wide || in.Addr>>opShift != 0
	g.stream.push(packed{in.PC, in.Addr | uint64(in.Op)<<opShift})
	*g.sched = append(*g.sched, g.core)
}

// replayer hands out a recorded stream.
type replayer struct {
	name   string
	stream *stream
	i      int
}

func (g *replayer) Name() string { return g.name }
func (g *replayer) Reset()       { g.i = 0 }
func (g *replayer) Next(in *trace.Instr) {
	p := g.stream.at(g.i)
	g.i++
	in.PC, in.Op, in.Addr = p.pc, trace.Op(p.addr>>opShift), p.addr&(1<<opShift-1)
}

// splitBuffers are the recorded streams, schedule and latencies, kept
// across splits so repeated splits reuse their capacity.
type splitBuffers struct {
	streams  []stream
	sched    []uint8
	fetchLat []uint16
	memLat   []uint16
}

// splitSample is one split simulation. Times are total nanoseconds.
type splitSample struct {
	budgeted, executed                   uint64
	e2e, record, next, replay, hier, cpu float64
	accesses, memoHits, measuredFetches  uint64
	res                                  sim.MixResult
}

// add accumulates o into s (times, counts and the result's counters).
func (s *splitSample) add(o splitSample) {
	s.budgeted += o.budgeted
	s.executed += o.executed
	s.e2e += o.e2e
	s.record += o.record
	s.next += o.next
	s.replay += o.replay
	s.hier += o.hier
	s.cpu += o.cpu
	s.accesses += o.accesses
	s.memoHits += o.memoHits
	s.measuredFetches += o.measuredFetches
	addResult(&s.res, o.res)
}

// addResult sums b's counters into a (per-app stats are summed
// position-wise, throughput is summed).
func addResult(a *sim.MixResult, b sim.MixResult) {
	if len(a.Apps) < len(b.Apps) {
		a.Apps = append(a.Apps, make([]sim.AppResult, len(b.Apps)-len(a.Apps))...)
	}
	for i, x := range b.Apps {
		y := &a.Apps[i]
		y.Instructions += x.Instructions
		y.Cycles += x.Cycles
		for _, p := range [][2]*hierarchy.LevelStats{{&y.L1I, &x.L1I}, {&y.L1D, &x.L1D}, {&y.L2, &x.L2}, {&y.LLC, &x.LLC}} {
			p[0].Accesses += p[1].Accesses
			p[0].Misses += p[1].Misses
		}
		y.InclusionVictims += x.InclusionVictims
	}
	t, u := &a.Traffic, b.Traffic
	t.QBSQueries += u.QBSQueries
	t.QBSSaves += u.QBSSaves
	t.BackInvalidates += u.BackInvalidates
	t.MemoryReads += u.MemoryReads
	t.PrefetchIssued += u.PrefetchIssued
	t.PrefetchFills += u.PrefetchFills
	a.Throughput += b.Throughput
	a.LLCMisses += b.LLCMisses
	a.InclusionVictims += b.InclusionVictims
}

// generators builds mix's synthetic streams exactly as sim.RunMix seeds
// them.
func generators(cfg sim.Config, mix workload.Mix) ([]trace.Generator, error) {
	bs, err := mix.Benchmarks()
	if err != nil {
		return nil, err
	}
	gens := make([]trace.Generator, len(bs))
	for i, b := range bs {
		g, err := b.NewGenerator(cfg.Seed + uint64(i)*0x9e37)
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	return gens, nil
}

// split runs the five passes on (cfg, mix) and checks that each pass
// reproduces the e2e result.
func split(cfg sim.Config, mix workload.Mix, buf *splitBuffers) (splitSample, error) {
	var s splitSample
	if cfg.Hierarchy.LLCBanks != 0 {
		return s, fmt.Errorf("split: banked LLCs read the access time, which the hierarchy-only pass does not model")
	}
	n := cfg.Hierarchy.Cores
	s.budgeted = uint64(n) * (cfg.Warmup + cfg.Instructions)

	t := time.Now()
	ref, err := sim.RunMix(cfg, mix)
	s.e2e = float64(time.Since(t))
	if err != nil {
		return s, err
	}
	s.res = ref
	want := digest(resultCore(ref))

	// record
	gens, err := generators(cfg, mix)
	if err != nil {
		return s, err
	}
	if len(buf.streams) < n {
		buf.streams = make([]stream, n)
	}
	buf.sched = buf.sched[:0]
	recs := make([]*recorder, n)
	streams := make([]trace.Generator, n)
	for i := range recs {
		buf.streams[i].n = 0
		recs[i] = &recorder{gen: gens[i], core: uint8(i), stream: &buf.streams[i], sched: &buf.sched}
		streams[i] = recs[i]
	}
	t = time.Now()
	got, err := sim.RunGenerators(cfg, streams)
	s.record = float64(time.Since(t))
	if err != nil {
		return s, err
	}
	for i, g := range recs {
		if g.wide {
			return s, fmt.Errorf("split: core %d address overlaps the recorded op bits", i)
		}
	}
	if digest(resultCore(got)) != want {
		return s, fmt.Errorf("split: recorded run differs from sim.RunMix")
	}
	sched := buf.sched
	s.executed = uint64(len(sched))

	// generator
	gens, err = generators(cfg, mix)
	if err != nil {
		return s, err
	}
	for i, g := range gens {
		st := &buf.streams[i]
		var in trace.Instr
		var sum uint64
		t = time.Now()
		for k := 0; k < st.n; k++ {
			g.Next(&in)
			sum += in.PC ^ in.Addr
		}
		s.next += float64(time.Since(t))
		var rsum uint64
		for k := 0; k < st.n; k++ {
			p := st.at(k)
			rsum += p.pc ^ p.addr&(1<<opShift-1)
		}
		if sum != rsum {
			return s, fmt.Errorf("split: core %d regenerated stream differs from the recorded one", i)
		}
	}

	// replay
	for i := range streams {
		streams[i] = &replayer{name: gens[i].Name(), stream: &buf.streams[i]}
	}
	t = time.Now()
	got, err = sim.RunGenerators(cfg, streams)
	s.replay = float64(time.Since(t))
	if err != nil {
		return s, err
	}
	if digest(resultCore(got)) != want {
		return s, fmt.Errorf("split: replayed run differs from sim.RunMix")
	}

	ev, err := scheduleEvents(sched, n, cfg.Warmup, cfg.Instructions)
	if err != nil {
		return s, err
	}
	if err := hierarchyPass(cfg, ref, sched, buf, ev, &s); err != nil {
		return s, err
	}
	if err := cpuPass(cfg, ref, sched, buf, ev, &s); err != nil {
		return s, err
	}
	return s, nil
}

// resultCore is the part of a MixResult every pass must reproduce: all
// of it except the mix label, which RunGenerators sets to "custom".
func resultCore(r sim.MixResult) sim.MixResult {
	r.Mix = workload.Mix{}
	return r
}

// event marks a schedule step after which the simulator resets its
// warmup counters (core < 0) or freezes core's measured window.
type event struct {
	step int
	core int
}

// scheduleEvents finds the warmup reset and each core's budget
// crossing in the recorded schedule, the points at which sim's run loop
// acts, and checks the schedule ends at the last crossing. A trailing
// sentinel keeps the passes' event cursor in range.
func scheduleEvents(sched []uint8, cores int, warmup, budget uint64) ([]event, error) {
	var ev []event
	committed := make([]uint64, cores)
	measuring := warmup == 0
	phase := budget
	if !measuring {
		phase = warmup
	}
	reached := 0
	for k, c := range sched {
		committed[c]++
		if committed[c] != phase {
			continue
		}
		reached++
		if measuring {
			ev = append(ev, event{k, int(c)})
		}
		if reached < cores {
			continue
		}
		if measuring {
			if k != len(sched)-1 {
				return nil, fmt.Errorf("split: schedule runs %d steps past the last budget crossing", len(sched)-1-k)
			}
			return append(ev, event{len(sched), 0}), nil
		}
		ev = append(ev, event{k, -1})
		measuring, phase, reached = true, budget, 0
		for i := range committed {
			committed[i] = 0
		}
	}
	return nil, fmt.Errorf("split: schedule ends before every core reaches its budget")
}

// hierarchyPass replays the schedule into a fresh hierarchy, recording
// each instruction's fetch and data latency for the cpu pass, and
// checks its counters against ref.
func hierarchyPass(cfg sim.Config, ref sim.MixResult, sched []uint8, buf *splitBuffers, ev []event, s *splitSample) error {
	h, err := hierarchy.New(cfg.Hierarchy)
	if err != nil {
		return err
	}
	n := cfg.Hierarchy.Cores
	if cap(buf.fetchLat) < len(sched) {
		buf.fetchLat = make([]uint16, len(sched))
		buf.memLat = make([]uint16, len(sched))
	}
	fetchLat, memLat := buf.fetchLat[:len(sched)], buf.memLat[:len(sched)]
	pos := make([]int, n)
	snaps := make([]hierarchy.CoreStats, n)
	hitLat := cfg.Hierarchy.Latency.L1
	var over, accesses, memo, measuredFrom uint64
	next := 0

	t := time.Now()
	for k, c := range sched {
		p := buf.streams[c].at(pos[c])
		pos[c]++
		off := uint64(c) * coreSpacing
		pc := p.pc + off
		fl := hitLat
		if h.IFetchMemoHit(int(c), pc) {
			memo++
		} else {
			fl = h.AccessAt(int(c), hierarchy.IFetch, pc, 0).Latency
			accesses++
		}
		var ml uint64
		if op := trace.Op(p.addr >> opShift); op != trace.OpNone {
			kind := hierarchy.Load
			if op == trace.OpStore {
				kind = hierarchy.Store
			}
			ml = h.AccessAt(int(c), kind, p.addr&(1<<opShift-1)+off, 0).Latency
			accesses++
		}
		over |= fl | ml
		fetchLat[k], memLat[k] = uint16(fl), uint16(ml)
		for ev[next].step == k {
			if e := ev[next]; e.core < 0 {
				for i := range h.Cores {
					h.Cores[i] = hierarchy.CoreStats{}
				}
				h.Traffic = hierarchy.Traffic{}
				memo, measuredFrom = 0, uint64(k+1)
			} else {
				snaps[e.core] = h.Cores[e.core]
			}
			next++
		}
	}
	s.hier = float64(time.Since(t))
	s.accesses, s.memoHits = accesses, memo
	s.measuredFetches = uint64(len(sched)) - measuredFrom

	if over>>16 != 0 {
		return fmt.Errorf("split: a latency exceeds the recorded 16 bits")
	}
	for c := 0; c < n; c++ {
		a, cs := ref.Apps[c], snaps[c]
		if cs.L1I != a.L1I || cs.L1D != a.L1D || cs.L2 != a.L2 || cs.LLC != a.LLC ||
			cs.InclusionVictims != a.InclusionVictims || cs.L2InclusionVictims != a.L2InclusionVictims {
			return fmt.Errorf("split: hierarchy-only pass core %d counters %+v, real run %+v %+v %+v %+v victims %d",
				c, cs, a.L1I, a.L1D, a.L2, a.LLC, a.InclusionVictims)
		}
	}
	if h.Traffic != ref.Traffic {
		return fmt.Errorf("split: hierarchy-only pass traffic %+v, real run %+v", h.Traffic, ref.Traffic)
	}
	return nil
}

// cpuPass feeds the recorded latencies through fresh cores along the
// schedule and checks each core's measured cycles against ref.
func cpuPass(cfg sim.Config, ref sim.MixResult, sched []uint8, buf *splitBuffers, ev []event, s *splitSample) error {
	n := cfg.Hierarchy.Cores
	cores := make([]*cpu.Core, n)
	for i := range cores {
		c, err := cpu.New(cfg.CPU)
		if err != nil {
			return err
		}
		cores[i] = c
	}
	cycles := make([]uint64, n)
	hitLat := cfg.Hierarchy.Latency.L1
	fetchLat, memLat := buf.fetchLat, buf.memLat
	next := 0

	t := time.Now()
	for k, c := range sched {
		cores[c].Instr(uint64(fetchLat[k]), uint64(memLat[k]), hitLat)
		for ev[next].step == k {
			if e := ev[next]; e.core < 0 {
				for _, core := range cores {
					core.Reset()
				}
			} else {
				cycles[e.core] = cores[e.core].Finish()
			}
			next++
		}
	}
	s.cpu = float64(time.Since(t))

	for c := 0; c < n; c++ {
		if cycles[c] != ref.Apps[c].Cycles {
			return fmt.Errorf("split: cpu-only pass core %d ran %d cycles, real run %d", c, cycles[c], ref.Apps[c].Cycles)
		}
	}
	return nil
}

// reportSplit records the per-layer metrics of ops accumulated splits.
// Times are per executed instruction; counts are per op.
func reportSplit(r *run, s splitSample, ops int) {
	x := float64(s.executed)
	perOp := func(v uint64) float64 { return float64(v) / float64(ops) }
	e2e, next, replay := s.e2e/x, s.next/x, s.replay/x
	hier, core := s.hier/x, s.cpu/x
	r.set("trace.next_ns", next, "ns")
	r.set("trace.share", ratio(next, e2e), "ratio")
	r.set("sim.executed_instr", perOp(s.executed), "count")
	r.set("sim.executed_per_budgeted", ratio(x, float64(s.budgeted)), "ratio")
	r.set("sim.e2e_ns", e2e, "ns")
	r.set("sim.e2e_per_budgeted_ns", s.e2e/float64(s.budgeted), "ns")
	r.set("sim.replay_ns", replay, "ns")
	r.set("sim.interleave_ns", replay-hier-core, "ns")
	r.set("sim.residual_ns", e2e-next-replay, "ns")
	r.set("sim.layer_sum_ns", next+replay, "ns")
	r.set("sim.tracing_overhead", ratio(s.record, s.e2e)-1, "ratio")
	r.set("hierarchy.access_ns", hier, "ns")
	r.set("cpu.instr_ns", core, "ns")

	res := s.res
	var instr, l1Acc, l1Miss, l2Acc, l2Miss, llcMiss, cycles float64
	for _, a := range res.Apps {
		instr += float64(a.Instructions)
		cycles += float64(a.Cycles)
		l1Acc += float64(a.L1I.Accesses + a.L1D.Accesses)
		l1Miss += float64(a.L1I.Misses + a.L1D.Misses)
		l2Acc += float64(a.L2.Accesses)
		l2Miss += float64(a.L2.Misses)
		llcMiss += float64(a.LLC.Misses)
	}
	tr := res.Traffic
	r.set("hierarchy.accesses_per_instr", ratio(float64(s.accesses), x), "ratio")
	r.set("hierarchy.llc_mpki", 1000*ratio(llcMiss, instr), "1/kinstr")
	r.set("hierarchy.back_invalidates", perOp(tr.BackInvalidates), "count")
	r.set("hierarchy.inclusion_victims", perOp(res.InclusionVictims), "count")
	r.set("hierarchy.qbs_queries_per_miss", ratio(float64(tr.QBSQueries), llcMiss), "ratio")
	r.set("hierarchy.qbs_save_ratio", ratio(float64(tr.QBSSaves), float64(tr.QBSQueries)), "ratio")
	r.set("hierarchy.prefetch_fill_ratio", ratio(float64(tr.PrefetchFills), float64(tr.PrefetchIssued)), "ratio")
	r.set("hierarchy.memory_reads", perOp(tr.MemoryReads), "count")
	r.set("hierarchy.ifetch_memo_hit_ratio", ratio(float64(s.memoHits), float64(s.measuredFetches)), "ratio")
	r.set("hierarchy.l1_hit_ratio", 1-ratio(l1Miss, l1Acc), "ratio")
	r.set("hierarchy.l2_hit_ratio", 1-ratio(l2Miss, l2Acc), "ratio")
	r.set("cpu.ipc", ratio(instr, cycles), "instr/cycle")
}
