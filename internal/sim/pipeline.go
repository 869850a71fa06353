package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tlacache/internal/trace"
)

// The generator pipeline. A synthetic generator step is a serial chain
// of splitmix64 draws that costs about a third of an executed
// instruction, while a multi-core run keeps only one CPU busy. For the
// streams sim owns (RunMix and RunIsolation build them from pooled
// *trace.Synthetic), one producer goroutine per run runs every core's
// generator ahead of the run loop on an otherwise idle CPU and hands
// over its instructions in fixed-size batches, one ring of batches per
// core (a lane). The run loop takes exactly the sequence repeated Next
// calls would give, so results are byte-identical to an inline run
// (TestPipelineMatchesInline).
//
// A lane's batches are filled strictly in stream order, each by
// whoever claims the lane first: normally the producer, running up to
// ringBatches-1 batches ahead, but the run loop itself when it reaches
// a batch nobody has filled yet. A late producer therefore costs the
// run loop one inline batch, not a wait. Producers are late because of
// the Go scheduler: a goroutine woken by a channel send is queued on
// the sender's own P, and another P steals it only after a back-off
// that took tens of microseconds on the measurement host. One producer
// per run, rather than one per core, keeps a claim holder from being
// descheduled in favour of another producer sharing its P.
//
// RunGenerators never pipelines: its callers may observe the order and
// number of Next calls (perfbench's split recorder, TLAT1 replays), and
// a producer running ahead would change both.

const (
	// batchLen is the number of instructions per hand-over. One batch
	// takes the run loop tens of microseconds, so the few atomic
	// operations per batch stay in the noise.
	batchLen = 512
	// ringBatches is the number of batches per lane: the one the run
	// loop is reading and up to three filled ahead. 32KB.
	ringBatches = 4
	// pipelineMinBudget is the per-core budget (warmup plus measured
	// instructions) below which a run stays inline. A short run — the
	// daemon's 20k-instruction jobs, 1-instruction set-up runs — would
	// spend more on the hand-over and the producer's run-ahead than the
	// pipeline saves.
	pipelineMinBudget = 64 << 10
	// spinPolls is how often the run loop polls a batch the producer is
	// filling before it yields its P. A fill takes about ten
	// microseconds, so a producer still holding the claim after that
	// many polls has lost its CPU to another thread or another tenant.
	spinPolls = 1 << 16
)

// busyPs counts the Ps that simulations in flight hold: one per inline
// run, two per pipelined run (its run loop and its producer).
var busyPs atomic.Int64

// reserve claims the Ps a run of cfg needs and reports whether the run
// pipelines: only over sim-owned streams, only when the budget repays
// the hand-over, and only when a P is left for the producer besides
// those every other simulation holds. A producer sharing a P with
// another run loop would only take turns with it, so sweeps that keep
// every CPU busy stay inline. The caller hands the result to release
// when the run ends.
func reserve(cfg Config, owned bool) (pipe bool) {
	if owned && cfg.Warmup+cfg.Instructions >= pipelineMinBudget {
		if busyPs.Add(2) <= int64(runtime.GOMAXPROCS(0)) {
			return true
		}
		busyPs.Add(-1)
		return false
	}
	busyPs.Add(1)
	return false
}

// release returns the Ps reserve claimed.
func release(pipe bool) {
	if pipe {
		busyPs.Add(-2)
	} else {
		busyPs.Add(-1)
	}
}

// record is one produced instruction, 16 bytes. A synthetic PC is
// instruction-aligned (code starts line-aligned and advances 4 bytes at
// a time), so its two low bits carry the trace.Op; the data address,
// which a Stream component of any stride may leave unaligned, is
// stored whole. Both already include the core's address-space offset.
type record struct{ pc, addr uint64 }

const opMask = 3

type batch [batchLen]record

// Lane state: the low bits count the batches filled so far; claimed
// is set while someone fills the next one; stopped retires the lane,
// after which nobody claims it again.
const (
	claimed   = 1 << 62
	stopped   = 1 << 63
	countMask = claimed - 1
)

// lane is one core's stream and ring. gen, offset, in and the slot of
// the batch being filled belong to whoever holds the claim in state.
type lane struct {
	state    atomic.Uint64
	released atomic.Uint64 // batches the run loop has finished reading
	gen      trace.Generator
	offset   uint64
	ring     *[ringBatches]batch // allocated on its own: whole pages
	// in is the filler's instruction scratch, written once per
	// instruction. The padding keeps it off the cache line of state,
	// which the run loop polls while the producer fills.
	_  [64]byte
	in trace.Instr
}

// fill generates batch k into its ring slot. The caller holds the
// claim; fill drops it by publishing k+1 filled batches, which also
// publishes the slot's contents, and keeps a stop that arrived
// meanwhile.
func (l *lane) fill(k uint64) {
	b := &l.ring[k%ringBatches]
	for i := range b {
		l.gen.Next(&l.in)
		b[i] = record{pc: l.in.PC + l.offset | uint64(l.in.Op), addr: l.in.Addr + l.offset}
	}
	for {
		s := l.state.Load()
		if l.state.CompareAndSwap(s, s&stopped|(k+1)) {
			return
		}
	}
}

// tryFill fills the lane's next batch if the ring has room and nobody
// holds the claim, and reports whether it did.
func (l *lane) tryFill() bool {
	s := l.state.Load()
	k := s & countMask
	if s&(claimed|stopped) != 0 || k >= l.released.Load()+ringBatches ||
		!l.state.CompareAndSwap(s, s|claimed) {
		return false
	}
	l.fill(k)
	return true
}

// await returns once batch k is filled, filling it itself when nobody
// has claimed it.
func (l *lane) await(k uint64) {
	for polls := 1; ; polls++ {
		s := l.state.Load()
		if s&countMask > k {
			return
		}
		if s&claimed == 0 && l.state.CompareAndSwap(s, s|claimed) {
			l.fill(k)
			return
		}
		if polls%spinPolls == 0 {
			runtime.Gosched()
		}
	}
}

// retire stops the lane and waits out a fill in progress. The stream
// is the run loop's again.
func (l *lane) retire() {
	for {
		s := l.state.Load()
		if l.state.CompareAndSwap(s, s|stopped) {
			break
		}
	}
	for l.state.Load()&claimed != 0 {
		runtime.Gosched()
	}
}

// producer is a pooled goroutine and its lanes. Within a job it fills
// the lanes round-robin, a batch at a time, and parks on wake when no
// lane has room; once stop has retired every lane it leaves the job.
type producer struct {
	lanes []*lane
	n     int // lanes in the current job
	// wake holds at most one token: a ring slot came free or stop
	// retired the lanes. jobs starts a job.
	wake chan struct{}
	jobs chan struct{}
	busy atomic.Bool // from a job's start until the producer leaves it
}

func newProducer() *producer {
	p := &producer{wake: make(chan struct{}, 1), jobs: make(chan struct{}, 1)}
	go p.loop()
	return p
}

func (p *producer) loop() {
	for range p.jobs {
		for {
			live, filled := false, false
			for _, l := range p.lanes[:p.n] {
				if l.state.Load()&stopped == 0 {
					live = true
					filled = l.tryFill() || filled
				}
			}
			if !live {
				break
			}
			if !filled {
				<-p.wake
			}
		}
		p.busy.Store(false)
	}
}

// signal leaves a wake token unless one is already pending.
func (p *producer) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// startProducer hands every feed's stream to one pooled producer. From
// here until stop returns, only the holder of a lane's claim may call
// that lane's stream.
func startProducer(feeds []feed) *producer {
	p := acquireProducer()
	for len(p.lanes) < len(feeds) {
		p.lanes = append(p.lanes, &lane{ring: new([ringBatches]batch)})
	}
	p.n = len(feeds)
	for i := range feeds {
		f, l := &feeds[i], p.lanes[i]
		l.gen, l.offset = f.gen.inner, f.gen.offset
		l.released.Store(0)
		l.state.Store(0)
		f.prod, f.lane, f.k, f.buf = p, l, 0, nil
	}
	select {
	case <-p.wake: // a token left over from the previous job
	default:
	}
	p.busy.Store(true)
	p.jobs <- struct{}{}
	return p
}

// stop retires every lane, waits for the producer to leave the job and
// pools it. The caller may then release the streams.
func (p *producer) stop(feeds []feed) {
	for i := range feeds {
		feeds[i].lane.retire()
		feeds[i].prod, feeds[i].lane, feeds[i].buf = nil, nil, nil
	}
	p.signal()
	for p.busy.Load() {
		runtime.Gosched()
	}
	for _, l := range p.lanes[:p.n] {
		l.gen = nil
	}
	releaseProducer(p)
}

// feed is one core's instruction source in the run loop: either its
// stream called inline through gen, or, while lane is set, the batches
// a producer fills from that stream.
type feed struct {
	gen offsetGen
	// in is the inline path's instruction scratch. A feed field rather
	// than a local: its address flows into the generator's interface
	// call, so as a local it would escape and cost one heap allocation
	// per run — in a pooled machine it is allocated once.
	in   trace.Instr
	prod *producer
	lane *lane
	k    uint64   // index of the next batch to read
	buf  []record // unread tail of batch k-1, empty when inline
}

// next returns the core's next instruction. The batch path is small;
// refill handles batch boundaries and the inline stream.
func (f *feed) next() (pc uint64, op trace.Op, addr uint64) {
	if len(f.buf) > 0 {
		r := f.buf[0]
		f.buf = f.buf[1:]
		return r.pc &^ opMask, trace.Op(r.pc & opMask), r.addr
	}
	return f.refill()
}

func (f *feed) refill() (pc uint64, op trace.Op, addr uint64) {
	l := f.lane
	if l == nil {
		f.gen.Next(&f.in)
		return f.in.PC, f.in.Op, f.in.Addr
	}
	// Batch k-1 is read: its slot is free for batch k+ringBatches-1.
	l.released.Store(f.k)
	f.prod.signal()
	l.await(f.k)
	// The producer may have parked while the run loop held the claim.
	f.prod.signal()
	b := &l.ring[f.k%ringBatches]
	f.k++
	f.buf = b[1:]
	return b[0].pc &^ opMask, trace.Op(b[0].pc & opMask), b[0].addr
}

// Producers are pooled by concurrency, not by machine shape: any
// producer serves any run, growing its lanes to the run's core count,
// so the free list only ever holds as many producers as runs went on
// at once. maxParkedProducers bounds the parked goroutines (and their
// 32KB-per-lane rings); a producer released beyond it exits.
var maxParkedProducers = maxFree

var producerPool = struct {
	sync.Mutex
	free []*producer
}{}

func acquireProducer() *producer {
	producerPool.Lock()
	if n := len(producerPool.free); n > 0 {
		p := producerPool.free[n-1]
		producerPool.free[n-1] = nil
		producerPool.free = producerPool.free[:n-1]
		producerPool.Unlock()
		return p
	}
	producerPool.Unlock()
	return newProducer()
}

func releaseProducer(p *producer) {
	producerPool.Lock()
	if len(producerPool.free) < maxParkedProducers {
		producerPool.free = append(producerPool.free, p)
		p = nil
	}
	producerPool.Unlock()
	if p != nil {
		close(p.jobs)
	}
}
