// Package flux is a golden fixture for the counterdiscipline analyzer:
// uint64 (and array-of-uint64) fields of types named Traffic or
// TLAStats are event counters and may only grow outside Reset.
package flux

// Traffic mirrors the simulator's event-counter struct shape.
type Traffic struct {
	Hits   uint64
	Misses uint64
	Label  string
}

// TLAStats mirrors the hierarchy's TLA statistics: a counter, an array
// of counters, and non-counter bookkeeping.
type TLAStats struct {
	Rescues uint64
	buckets [4]uint64
	open    int
}

// Hierarchy embeds the counter blocks the way the simulator does.
type Hierarchy struct {
	Traffic Traffic
	TLA     TLAStats
}

// Observe shows the allowed writes: increments, add-assigns, and
// assignments to non-counter fields.
func Observe(t *Traffic, s *TLAStats) {
	t.Hits++
	t.Misses += 2
	s.Rescues++
	s.buckets[1]++
	s.open = 3
	t.Label = "warm"
}

// Corrupt shows every forbidden shape.
func Corrupt(t *Traffic, s *TLAStats) {
	t.Hits = 0       // want `counter Traffic\.Hits modified with = outside Reset`
	t.Misses--       // want `counter Traffic\.Misses modified with -- outside Reset`
	t.Hits -= 1      // want `counter Traffic\.Hits modified with -= outside Reset`
	s.buckets[2] = 9 // want `counter TLAStats\.buckets modified with = outside Reset`
	s.Rescues--      // want `counter TLAStats\.Rescues modified with -- outside Reset`
}

// Reset may zero counters: it is the sanctioned reset point.
func (t *Traffic) Reset() {
	t.Hits = 0
	t.Misses = 0
}

// Swap replaces the whole blocks, which stays legal: the assignments
// name the structs, not counter fields.
func (h *Hierarchy) Swap() {
	h.Traffic = Traffic{}
	h.TLA = TLAStats{}
}
