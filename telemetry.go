package phasehash

import (
	"net"

	"phasehash/internal/obs"
)

// This file is the public face of the telemetry substrate
// (internal/obs). Every binary carries the always-on counter core: op,
// hit and probe-step totals from every table layout, resize counts, the
// sharded partition's imbalance gauge and the worker pool's counters.
// Building with `-tags obs` (`make obs`) adds probe-length histograms,
// the epoch latency histogram, the phase timeline and the debug
// endpoint. Only `-tags nostats` (without obs) removes the core, and
// the 1% overhead gate (`make tune-overhead`) compares the default
// build against that nostats build.

// Stats merges the telemetry into one snapshot: the counter core's
// totals plus, in obs builds, the probe-length histograms (power-of-two
// buckets) and the phase timeline (Enabled reports which). Safe to call
// at any time, but counters raced with live operations may be torn
// across fields; take snapshots at phase barriers for exact numbers.
//
// Stats is phase-neutral: it reads the telemetry sinks, never the
// tables, so it is legal during any phase (phasevet knows this).
func Stats() obs.Snapshot { return obs.TakeSnapshot() }

// ResetStats zeroes the counter core, the histograms and the phase
// timeline, so the next Stats() covers only what ran in between.
// Callers should be at a phase barrier; resets raced with live
// operations lose increments harmlessly.
func ResetStats() { obs.Reset() }

// ServeDebug starts the live observability endpoint on addr
// ("localhost:6060" style) and returns the bound address: /debug/vars
// (expvar with a "phasestats" snapshot), /debug/phasestats (snapshot
// JSON alone) and /debug/pprof/* for profiling a running soak. In
// binaries built without `-tags obs` it returns an error
// (obs.ErrDisabled), and keeps net/http out of the binary.
func ServeDebug(addr string) (net.Addr, error) { return obs.Serve(addr) }
