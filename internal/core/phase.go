package core

import (
	"fmt"
	"sync/atomic"

	"phasehash/internal/obs"
)

// Phase identifies one of the table's operation classes. The legal
// concurrent subsets are {insert}, {delete}, and {find, elements}
// (reads); the guard below enforces that operations from different
// subsets never overlap in time.
type Phase int32

// Phases of a phase-concurrent hash table.
const (
	PhaseIdle      Phase = iota // no operations in flight
	PhaseInsert                 // concurrent Inserts
	PhaseDelete                 // concurrent Deletes
	PhaseRead                   // concurrent Finds and Elements
	PhaseExclusive              // quiescent-only maintenance (Clear); never concurrent
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseInsert:
		return "insert"
	case PhaseDelete:
		return "delete"
	case PhaseRead:
		return "read"
	case PhaseExclusive:
		return "exclusive"
	default:
		return fmt.Sprintf("Phase(%d)", int32(p))
	}
}

// PhaseGuard is a runtime detector of phase-discipline violations: it
// tracks which phase is active and how many operations are in flight, and
// reports an error when an operation of a different subset starts while
// another subset is active. It is intentionally separate from the tables
// themselves so that benchmarked code paths carry no checking overhead;
// wrap a table with the checked facade (package phasehash) or call
// Enter/Exit around operations in tests.
//
// The guard is itself safe for concurrent use and adds two atomic
// operations per guarded call.
//
// In obs builds the guard additionally emits the phase timeline: it
// sees every phase transition, so the idle→phase claim opens an
// obs.ActiveSpan (also a runtime/trace task named "phase:<name>") and
// the last Exit closes it, yielding {phase, start, end, opCount} spans
// in obs.TakeSnapshot(). Without the tag the span field is dead weight of
// one pointer and every hook folds away.
type PhaseGuard struct {
	// state packs (phase << 32) | active-count into one word so that
	// phase transitions and occupancy changes are a single CAS.
	state atomic.Uint64
	// span is the obs-build timeline span for the currently active
	// phase; owned by the idle→phase claimant, cleared by the last Exit.
	span atomic.Pointer[obs.ActiveSpan]
}

func packState(p Phase, n uint32) uint64   { return uint64(p)<<32 | uint64(n) }
func unpackState(s uint64) (Phase, uint32) { return Phase(s >> 32), uint32(s) }

// Enter records the start of an operation in phase p. It returns an error
// (and records nothing) if an incompatible phase is active — that is a
// phase-discipline violation in the caller, the exact bug class the
// deterministic table forbids.
func (g *PhaseGuard) Enter(p Phase) error {
	for {
		s := g.state.Load()
		cur, n := unpackState(s)
		if n == 0 {
			// Idle: claim the phase.
			if g.state.CompareAndSwap(s, packState(p, 1)) {
				if obs.Enabled {
					g.span.Store(obs.PhaseStart(p.String()))
					g.span.Load().AddOp()
				}
				return nil
			}
			continue
		}
		if cur != p {
			return fmt.Errorf("core: phase violation: %s operation started during %s phase (%d in flight)",
				p.String(), cur.String(), n)
		}
		if g.state.CompareAndSwap(s, packState(p, n+1)) {
			if obs.Enabled {
				g.span.Load().AddOp()
			}
			return nil
		}
	}
}

// EnterExclusive claims the guard for a quiescent-only operation such
// as Clear, which is a phase barrier by itself: it may not overlap any
// other operation, of any phase, including another exclusive one. It
// returns an error if anything is in flight. Release with
// Exit(PhaseExclusive).
func (g *PhaseGuard) EnterExclusive() error {
	for {
		s := g.state.Load()
		cur, n := unpackState(s)
		if n != 0 {
			return fmt.Errorf("core: phase violation: quiescent-only operation started during %s phase (%d in flight)",
				cur.String(), n)
		}
		if g.state.CompareAndSwap(s, packState(PhaseExclusive, 1)) {
			if obs.Enabled {
				g.span.Store(obs.PhaseStart(PhaseExclusive.String()))
				g.span.Load().AddOp()
			}
			return nil
		}
	}
}

// Exit records the completion of an operation in phase p. The last
// operation to leave returns the guard to idle, which is the quiescent
// point at which the table state is deterministic.
func (g *PhaseGuard) Exit(p Phase) {
	for {
		s := g.state.Load()
		cur, n := unpackState(s)
		if cur != p || n == 0 {
			panic(fmt.Sprintf("core: PhaseGuard.Exit(%v) without matching Enter (state %v/%d)", p, cur, n))
		}
		next := packState(p, n-1)
		if n == 1 {
			next = packState(PhaseIdle, 0)
		}
		if obs.Enabled && n == 1 {
			// Take the span before returning to idle: once the state CAS
			// lands another Enter may claim the guard and store a fresh
			// span, and the close must not race it.
			sp := g.span.Swap(nil)
			if g.state.CompareAndSwap(s, next) {
				obs.PhaseEnd(sp)
				return
			}
			g.span.Store(sp) // CAS lost; restore and retry
			continue
		}
		if g.state.CompareAndSwap(s, next) {
			return
		}
	}
}

// Active returns the currently active phase and the number of operations
// in flight (racy snapshot; for diagnostics).
func (g *PhaseGuard) Active() (Phase, int) {
	p, n := unpackState(g.state.Load())
	return p, int(n)
}
