// Package phasevet statically detects phase-discipline violations in
// code that uses the phasehash tables.
//
// The phase-concurrent contract (Shun & Blelloch, SPAA 2014) is that
// operations from different phases — {insert}, {delete}, {find,
// elements} — on the same table must never overlap in time. The
// runtime Checked facade catches overlap probabilistically when the
// schedule happens to interleave; this analyzer finds the bug class at
// compile time by tracking, within each function body, which phases
// may still be in flight on each table when the next operation starts.
//
// Since phasevet 2.0 the analysis is interprocedural: a function whose
// body (transitively) performs insert-phase table operations *is* an
// insert-phase operation at its call sites. Summaries ("effects") are
// inferred per function — which phases it performs on which parameter,
// receiver or package-level table, whether those operations are still
// in flight when it returns, and whether it contains an internal
// happens-before barrier — propagated to a fixed point within each
// package and exported across packages as object facts through
// framework.FactStore. Functions that bracket their operations with
// the runtime guard (core.PhaseGuard) are recognized as runtime-checked
// and excluded, exactly like the Checked* wrappers' absence from the
// fact table.
//
// The analyzer is modelled on golang.org/x/tools/go/analysis but is
// self-contained (this module has no dependencies): the Analyzer,
// Pass and Diagnostic types — shared with atomicvet and detvet via
// internal/analysis/framework — are a minimal structural subset of
// that API, so the checkers could be ported to a real go/analysis
// driver by swapping the types.
package phasevet

import (
	"phasehash/internal/analysis/framework"
)

// Analyzer, Pass and Diagnostic are the framework types, re-exported
// so existing phasevet call sites keep reading naturally.
type (
	Analyzer   = framework.Analyzer
	Pass       = framework.Pass
	Diagnostic = framework.Diagnostic
)
