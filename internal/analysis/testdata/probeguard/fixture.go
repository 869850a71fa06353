// Package telemetry is a golden fixture for the probeguard analyzer.
// Its import path ends in "telemetry", so the local DecisionTracer
// interface counts as the telemetry observer type the analyzer
// protects.
package telemetry

// DecisionTracer is the fixture's stand-in for the LLC victim-decision
// tracer interface.
type DecisionTracer interface {
	Decision(seq uint64)
	Flush()
}

// Machine owns an optional decision tracer, nil when tracing is off.
type Machine struct {
	tracer DecisionTracer
	hot    bool
}

// Guarded shows the canonical accepted shapes: a plain nil check and a
// compound condition reached through &&.
func (m *Machine) Guarded(seq uint64) {
	if m.tracer != nil {
		m.tracer.Decision(seq)
	}
	if m.tracer != nil && m.hot {
		m.tracer.Flush()
	}
}

// EarlyReturn is accepted: the nil case exits the block first.
func (m *Machine) EarlyReturn(seq uint64) {
	if m.tracer == nil {
		return
	}
	m.tracer.Decision(seq)
}

// Unguarded fires the tracer with no dominating nil check.
func (m *Machine) Unguarded(seq uint64) {
	m.tracer.Decision(seq) // want `m\.tracer\.Decision called without a dominating nil check`
}

// WrongBranch checks the tracer but calls it outside the guarded body.
func (m *Machine) WrongBranch() {
	if m.tracer != nil {
		m.hot = true
	}
	m.tracer.Flush() // want `m\.tracer\.Flush called without a dominating nil check`
}

// Closure is flagged: a guard outside a function literal does not
// dominate calls inside it (the literal may run after the tracer is
// cleared).
func (m *Machine) Closure(seq uint64) func() {
	if m.tracer == nil {
		return nil
	}
	return func() {
		m.tracer.Decision(seq) // want `m\.tracer\.Decision called without a dominating nil check`
	}
}

// GuardWrongObserver checks another machine's tracer but fires its
// own.
func (m *Machine) GuardWrongObserver(other *Machine, seq uint64) {
	if other.tracer != nil {
		m.tracer.Decision(seq) // want `m\.tracer\.Decision called without a dominating nil check`
	}
}
