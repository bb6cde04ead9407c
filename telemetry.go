package phasehash

import (
	"net"

	"phasehash/internal/obs"
)

// This file is the public face of the phasestats telemetry substrate
// (internal/obs). The full instrumentation is a build-tag pair, like
// the chaos fault-injection layer: build with `-tags obs` (`make obs`)
// to turn every probe loop, CAS site, table resize, pool dispatch and
// shard partition into a recorded event. Without the tag those hooks
// are const-folded away and Stats() returns a zero snapshot with
// Enabled == false.
//
// Untagged binaries are not counter-free: the default build carries the
// small always-on counter core (op and probe totals, dispatch shape,
// the shard-imbalance gauge; obs.CoreSnapshot), which Stats() does not
// report. Only `-tags nostats` removes it, and the 1% overhead gate
// (`make tune-overhead`) compares the default build against that
// nostats build.

// Stats merges the `-tags obs` telemetry sinks into one snapshot:
// per-operation counters, probe-length histograms (power-of-two
// buckets), shard balance, per-worker block attribution and the phase
// timeline. In binaries built without the tag it returns a zero
// snapshot; the always-on counter core is read separately
// (obs.CoreSnapshot). Safe to
// call at any time, but counters raced with live operations may be torn
// across fields; take snapshots at phase barriers for exact numbers.
//
// Stats is phase-neutral: it reads the telemetry sinks, never the
// tables, so it is legal during any phase (phasevet knows this).
func Stats() obs.Snapshot { return obs.TakeSnapshot() }

// ResetStats zeroes every telemetry counter, histogram and the phase
// timeline, so the next Stats() covers only what ran in between.
// Callers should be at a phase barrier; resets raced with live
// operations lose increments harmlessly.
func ResetStats() { obs.Reset() }

// ServeDebug starts the live observability endpoint on addr
// ("localhost:6060" style) and returns the bound address: /debug/vars
// (expvar with a "phasestats" snapshot), /debug/phasestats (snapshot
// JSON alone) and /debug/pprof/* for profiling a running soak. In
// binaries built without `-tags obs` it returns an error
// (obs.ErrDisabled) instead of serving an all-zero phasestats snapshot,
// even though the always-on counter core is live in those builds.
func ServeDebug(addr string) (net.Addr, error) { return obs.Serve(addr) }
