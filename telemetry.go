package phasehash

import (
	"net"

	"phasehash/internal/obs"
)

// This file is the public face of the phasestats telemetry substrate
// (internal/obs). The instrumentation is a build-tag pair, like the
// chaos fault-injection layer: binaries built without `-tags obs` carry
// no counters at all (the hooks are const-folded away and the no-op
// overhead gate in CI holds the untagged build within 1% of the
// baseline), and Stats() then returns a zero snapshot with Enabled ==
// false. Build with `-tags obs` (`make obs`) to turn every probe loop,
// CAS site, table resize, pool dispatch and shard partition into
// a recorded event.

// Stats merges the telemetry sinks into one snapshot: per-operation
// counters, probe-length histograms (power-of-two buckets), shard
// balance, per-worker block attribution and the phase timeline. Safe to
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
// (obs.ErrDisabled) instead of serving all-zero numbers.
func ServeDebug(addr string) (net.Addr, error) { return obs.Serve(addr) }
