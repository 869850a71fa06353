package resetcover

// Stats is a plain counter block, reset wholesale by its owners.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// Inner is reached member-wise from Widget: its own fields are judged
// individually because Widget.Reset writes into it field by field.
type Inner struct {
	vals []uint64
	tick uint64 // want `field resetcover.Inner.tick is never reset by resetcover.Widget.Reset`
}

// Resetter is the interface expansion path: annotating the interface
// method ropes in every implementation (Table.ResetState below).
type Resetter interface {
	//tlavet:resetcover
	ResetState()
}

// Table implements Resetter; the interface annotation makes ResetState
// a checked reset method and a valid delegation target.
type Table struct {
	assoc int //tlavet:resetexempt geometry fixed at construction, never varies across reuse
	rows  []uint8
}

// ResetState restores the fresh table.
func (t *Table) ResetState() {
	for i := range t.rows {
		t.rows[i] = 0
	}
}

// Widget is the pooled type under proof.
type Widget struct {
	cfg    int //tlavet:resetexempt immutable configuration, identical for every pool user
	count  uint64
	stats  Stats
	inner  Inner
	table  *Table
	orphan *Table // want `field resetcover.Widget.orphan has reset method resetcover.Table.ResetState that resetcover.Widget.Reset never invokes on it`
	ghost  uint64 // want `field resetcover.Widget.ghost is never reset by resetcover.Widget.Reset`
	//tlavet:resetexempt the run loop rewrites this before reading
	dead uint64 // want `stale //tlavet:resetexempt: field resetcover.Widget.dead IS reset by resetcover.Widget.Reset`
	//tlavet:resetexempt
	noWhy int // want `resetexempt directive has no reason` `field resetcover.Widget.noWhy is never reset`
}

// Reset restores Widget to its freshly-constructed state — almost.
//
//tlavet:resetcover
func (w *Widget) Reset() {
	w.count = 0
	w.stats = Stats{}
	w.resetInner()
	w.table.ResetState()
	w.dead = 0
}

// resetInner is chased as a same-receiver helper: its writes count as
// Reset's own.
func (w *Widget) resetInner() {
	w.inner.vals = w.inner.vals[:0]
}

// Flat shows the wholesale path: *f = Flat{} covers every field.
type Flat struct {
	a, b int
	s    Stats
}

// Reset overwrites the whole value.
//
//tlavet:resetcover
func (f *Flat) Reset() {
	*f = Flat{}
}

// Standalone is not a method, so the directive cannot name a receiver.
//
//tlavet:resetcover
func Standalone() {} // want `resetcover on resetcover.Standalone, which is not a method on a module struct`

// Counters is embedded in Pool and reset through promotion.
type Counters struct {
	hits   uint64
	misses uint64
}

// Pool embeds Counters.
type Pool struct {
	Counters
	free int
}

// Reset writes the promoted fields: p.hits writes Pool.Counters
// partially and Counters.hits completely, so nothing is reported.
//
//tlavet:resetcover
func (p *Pool) Reset() {
	p.hits = 0
	p.misses = 0
	p.free = 0
}

// Shelf embeds a *Table: calling the promoted ResetState delegates the
// reset of the embedded field.
type Shelf struct {
	*Table
	n int
}

// Reset delegates through the promoted method.
//
//tlavet:resetcover
func (s *Shelf) Reset() {
	s.ResetState()
	s.n = 0
}
