package hierarchy

import (
	"testing"

	"tlacache/internal/replacement"
)

// miniTLAConfig is a deliberately tiny machine (4KB LLC) so a few
// thousand accesses produce evictions, back-invalidations, and every
// TLA event.
func miniTLAConfig(tla TLAPolicy) Config {
	return Config{
		Cores: 2, LineSize: 64,
		L1ISize: 1 << 10, L1IAssoc: 2,
		L1DSize: 1 << 10, L1DAssoc: 2,
		L2Size: 2 << 10, L2Assoc: 2,
		LLCSize: 4 << 10, LLCAssoc: 4,
		L1Policy: replacement.LRU, L2Policy: replacement.LRU, LLCPolicy: replacement.NRU,
		Inclusion:  Inclusive,
		TLA:        tla,
		TLHSources: L1Caches, TLHPerMille: 1000,
		QBSProbe: AllCaches,
		Latency:  DefaultLatencies(),
	}
}

// striding is the number of lines in driveMini's data working set:
// 257*64B ≈ 4x the mini LLC.
const striding = 257

// driveMini runs a reuse-heavy access pattern whose working set
// exceeds the mini LLC, from both cores.
func driveMini(h *Hierarchy) {
	for i := 0; i < 6000; i++ {
		core := i & 1
		h.Access(core, IFetch, uint64(i%61)*64)
		h.Access(core, Load, uint64(i%striding)*64)
		if i%7 == 0 {
			h.Access(core, Store, uint64(i%striding)*64)
		}
	}
}

// TestTLAStatsPerPolicy checks that each TLA policy produces its own
// events and only those, that the always-on statistics cost no
// allocation, and that the TLA statistics agree with the Traffic
// counters they refine: with no counter reset every rescue's ECI is
// inside the window, so every rescue observes a distance, and the
// query-depth histogram partitions the QBS queries.
func TestTLAStatsPerPolicy(t *testing.T) {
	for _, tla := range []TLAPolicy{TLANone, TLATLH, TLAECI, TLAQBS} {
		t.Run(tla.String(), func(t *testing.T) {
			h := MustNew(miniTLAConfig(tla))
			driveMini(h)
			if avg := testing.AllocsPerRun(2, func() { driveMini(h) }); avg != 0 {
				t.Errorf("driving the mini machine allocates %.2f times per run", avg)
			}
			tr, st := h.Traffic, &h.TLA

			if h.TotalInclusionVictims() == 0 {
				t.Error("tiny inclusive LLC produced no inclusion victims")
			}
			if (tr.TLHSent > 0) != (tla == TLATLH) {
				t.Errorf("TLH hints = %d under %s", tr.TLHSent, tla)
			}
			if (tr.ECISent > 0) != (tla == TLAECI) {
				t.Errorf("ECI operations = %d under %s", tr.ECISent, tla)
			}
			if (st.ECIRescues > 0) != (tla == TLAECI) {
				t.Errorf("ECI rescues = %d under %s", st.ECIRescues, tla)
			}
			if (tr.QBSQueries > 0) != (tla == TLAQBS) {
				t.Errorf("QBS queries = %d under %s", tr.QBSQueries, tla)
			}
			if got := st.ECIRescueDistance.Count(); got != st.ECIRescues {
				t.Errorf("rescue distances observed = %d, rescues = %d", got, st.ECIRescues)
			}
			if got := st.QBSQueryDepth.Sum(); got != tr.QBSQueries {
				t.Errorf("query-depth sum = %d, QBS queries = %d", got, tr.QBSQueries)
			}
		})
	}
}

// TestQBSQueryDepthChains checks the query-depth rule access by
// access: every victim selection that spends queries observes exactly
// the number it spent — including chains that end on a save, at the
// query limit or a replacement fixed point — and selections that spend
// none observe nothing. In the mini machine one access performs at
// most one LLC victim selection, so each access's deltas isolate one
// chain.
func TestQBSQueryDepthChains(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit int
		evict bool
	}{
		{"limit-assoc", 0, false},
		{"limit-2", 2, false},
		{"modified", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := miniTLAConfig(TLAQBS)
			cfg.QBSMaxQueries = tc.limit
			cfg.QBSEvictSaved = tc.evict
			h := MustNew(cfg)
			var savedEnds, unsavedEnds, deep int
			for i := 0; i < 6000; i++ {
				queries, saves := h.Traffic.QBSQueries, h.Traffic.QBSSaves
				count, sum := h.TLA.QBSQueryDepth.Count(), h.TLA.QBSQueryDepth.Sum()
				h.Access(i&1, Load, uint64(i%striding)*64)
				dq, ds := h.Traffic.QBSQueries-queries, h.Traffic.QBSSaves-saves
				dc, dsum := h.TLA.QBSQueryDepth.Count()-count, h.TLA.QBSQueryDepth.Sum()-sum
				if dq == 0 {
					if dc != 0 {
						t.Fatalf("access %d: query-free selection observed %d depths", i, dc)
					}
					continue
				}
				if dc != 1 || dsum != dq {
					t.Fatalf("access %d: %d queries observed as %d chains summing to %d", i, dq, dc, dsum)
				}
				switch {
				case ds == dq:
					savedEnds++
				case ds == dq-1:
					unsavedEnds++
				default:
					t.Fatalf("access %d: %d saves in a %d-query chain", i, ds, dq)
				}
				if dq > 1 {
					deep++
				}
			}
			if savedEnds == 0 || unsavedEnds == 0 || deep == 0 {
				t.Errorf("chains ending saved/unsaved/deeper than 1 = %d/%d/%d, want all > 0",
					savedEnds, unsavedEnds, deep)
			}
		})
	}
}

// TestECIRescueDistance checks the rescue-distance arithmetic on
// hand-placed lines: three ECIs, rescues of the first and the third,
// and a rescue whose ECI predates the counter window.
func TestECIRescueDistance(t *testing.T) {
	h := MustNew(miniTLAConfig(TLAECI))
	sets := h.llc.NumSets()
	// eci fills LLC set s with four lines held by core 0 and
	// early-invalidates the next victim, returning its address.
	eci := func(s int) uint64 {
		for w := 0; w < h.cfg.LLCAssoc; w++ {
			h.llc.FillWay(s, w, uint64(s+w*sets)*64, 1)
		}
		addr := h.llc.Line(s, h.llc.VictimWay(s)).Addr
		h.earlyCoreInvalidate(s, ^uint64(0)) // no line was just filled
		if h.llc.Presence(addr) != 0 {
			t.Fatalf("set %d: ECI left the victim's presence mask set", s)
		}
		return addr
	}
	a, b, c := eci(0), eci(1), eci(2) // ECI operations 1, 2, 3
	h.Access(0, Load, a)              // distance 3-1
	h.Access(0, Load, c)              // distance 3-3
	h.Access(0, Load, a)              // presence restored: no rescue
	st := &h.TLA
	if h.Traffic.ECISent != 3 || st.ECIRescues != 2 {
		t.Fatalf("ECIs = %d, rescues = %d; want 3, 2", h.Traffic.ECISent, st.ECIRescues)
	}
	if s := st.ECIRescueDistance.Summary(); s.Count != 2 || s.Sum != 2 || s.Min != 0 || s.Max != 2 {
		t.Fatalf("rescue distances = %+v, want {0, 2}", s)
	}

	// The window restarts: b's ECI now lies before it, so b's rescue
	// counts but observes no distance.
	h.ResetCounters()
	h.Access(0, Load, b)
	if st.ECIRescues != 1 || st.ECIRescueDistance.Count() != 0 {
		t.Fatalf("pre-window rescue: rescues = %d, distances = %d; want 1, 0",
			st.ECIRescues, st.ECIRescueDistance.Count())
	}
}

// TestECIRescueDistanceUncapped drives far more ECI operations than
// there are LLC lines, almost all on streamed lines that leave the LLC
// unrescued, while a hot set keeps earning rescues. Every rescue whose
// ECI fell inside the window must observe its distance — an
// address-keyed table of pending ECIs, capped at 65,536 entries, lost
// them once it filled with never-rescued lines. After a counter reset,
// only rescues of lines ECI'd before it (at most one per LLC line) may
// go unobserved.
func TestECIRescueDistanceUncapped(t *testing.T) {
	h := MustNew(miniTLAConfig(TLAECI))
	const streamBase = 1 << 30
	drive := func(from, to int) {
		for i := from; i < to; i++ {
			h.Access(0, Load, uint64(i%40)*64)         // hot: 40 lines, beyond the L2
			h.Access(1, Load, streamBase+uint64(i)*64) // streamed: never reused
		}
	}
	drive(0, 150_000)
	st := &h.TLA
	if h.Traffic.ECISent <= 1<<16 {
		t.Fatalf("only %d ECI operations, want more than 65,536", h.Traffic.ECISent)
	}
	if st.ECIRescues == 0 {
		t.Fatal("hot set earned no rescues")
	}
	if got := st.ECIRescueDistance.Count(); got != st.ECIRescues {
		t.Fatalf("observed %d rescue distances for %d in-window rescues", got, st.ECIRescues)
	}

	h.ResetCounters()
	drive(150_000, 300_000)
	lines := uint64(h.cfg.LLCSize / h.cfg.LineSize)
	got := st.ECIRescueDistance.Count()
	if got > st.ECIRescues || st.ECIRescues-got > lines {
		t.Fatalf("after reset: %d distances for %d rescues, want at most %d unobserved",
			got, st.ECIRescues, lines)
	}
}
