package core

import (
	"testing"

	"phasehash/internal/obs"
)

// Benchmark telemetry hooks: benchObsReset clears the counter core and
// the histograms before the timed section and benchObsReport attaches
// probe metrics to the benchmark output afterwards, where benchjson
// picks them up as probes/op (the core's mean) and p99probes/op (the
// histogram's) columns. Both compile to nothing without -tags obs
// (obs.Enabled is const false), so the untagged baseline numbers are
// untouched.

func benchObsReset() {
	if obs.Enabled {
		obs.Reset()
	}
}

func benchObsReport(b *testing.B, class string) {
	if !obs.Enabled {
		return
	}
	s := obs.TakeSnapshot()
	var h *obs.Histogram
	switch class {
	case "insert":
		h = &s.InsertProbes
	case "find":
		h = &s.FindProbes
	case "delete":
		h = &s.DeleteProbes
	default:
		return
	}
	b.ReportMetric(s.MeanProbe(class), "probes/op")
	b.ReportMetric(float64(h.Quantile(0.99)), "p99probes/op")
}
