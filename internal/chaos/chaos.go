// Package chaos is a seeded fault-injection layer for manufacturing
// adversarial schedules inside the phase-concurrent tables.
//
// The hash tables' determinism claim (Shun & Blelloch, SPAA 2014) is
// that the quiescent state is identical under *every* legal schedule.
// Ordinary tests only exercise the schedules the Go runtime happens to
// produce; this package perturbs the probe/CAS/migration hot paths at
// named sites — extra goroutine yields, spin delays, forced CAS retries
// ("pretend the CAS lost"), and worker start skew — so that the
// determinism oracle (package detres) can replay a workload across many
// very different schedules and assert the quiescent state never moves.
//
// The package has two build-tag implementations:
//
//   - default (no tag): every hook is a no-op behind the constant
//     Enabled == false. Call sites are written
//     `if chaos.Enabled { chaos.Yield(site) }`, so the compiler deletes
//     them entirely: production and benchmark binaries carry zero cost.
//   - `-tags chaos`: the hooks are live. Nothing fires until a test or
//     driver calls Configure with a Profile and seed; injection
//     decisions are drawn from a seeded counter-based generator, and
//     per-site fire counts are recorded for failure repros.
//
// Forced CAS failures are injected only at sites where a lost CAS is a
// pure retry (the insert claim/merge/displacement points): the loop
// re-reads the cell and tries again, so semantics are untouched — only
// the schedule changes. Delete-path CASes are *not* forced to fail, as
// their failure branch encodes "a concurrent delete got there first".
package chaos

// Site names one injection point in the table or runtime code. Sites
// exist (as constants) in both build variants so call sites always
// compile; only the chaos build interprets them.
type Site uint8

// Injection sites.
const (
	SiteWordInsertProbe       Site = iota // top of WordTable insert probe loop
	SiteWordInsertClaim                   // empty-cell claim CAS in WordTable inserts
	SiteWordInsertMerge                   // duplicate-merge CAS in WordTable inserts
	SiteWordInsertDisplace                // displacement CAS in WordTable inserts
	SiteWordDeleteProbe                   // WordTable delete probe/replacement loops
	SitePtrInsertProbe                    // top of PtrTable insert probe loop
	SitePtrInsertClaim                    // empty-cell claim CAS in PtrTable.Insert
	SitePtrInsertMerge                    // duplicate-merge CAS in PtrTable.Insert
	SitePtrInsertDisplace                 // displacement CAS in PtrTable.Insert
	SitePtrDeleteProbe                    // PtrTable delete probe/replacement loops
	SiteGrowRehash                        // per-element step of GrowTable's rehash
	SiteParallelWorker                    // worker goroutine start in parallel.For/Do
	SiteEpochAdmit                        // epoch.Server.Submit admission path
	SiteEpochFlush                        // start of each epoch flush (delayed flush / stalled worker)
	SiteEpochCancel                       // epoch result delivery (forced mid-epoch cancellation)
	SiteCompactInsertProbe                // top of CompactTable insert probe loop
	SiteCompactInsertClaim                // empty-cell claim CAS in CompactTable inserts
	SiteCompactInsertMerge                // duplicate-merge CAS in CompactTable inserts
	SiteCompactInsertDisplace             // displacement CAS in CompactTable inserts
	SiteCompactDeleteProbe                // CompactTable delete probe/replacement loops
	SiteCompactCtrlCAS                    // ctrl-word publication CAS in CompactTable.syncCtrl
	numSites
)

// NumSites is the number of named injection sites.
const NumSites = int(numSites)

// String implements fmt.Stringer. The names live in sitenames.go as
// exported constants shared with the obs telemetry labels.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return "unknown-site"
}

// Profile sets the per-site injection rates. Rates are per-mille
// (0..1000) probabilities evaluated independently at each hook call.
type Profile struct {
	Name string
	// YieldPm is the per-mille chance a Yield site runs runtime.Gosched.
	YieldPm uint32
	// FailPm is the per-mille chance a FailCAS site pretends the CAS lost.
	FailPm uint32
	// DelayPm is the per-mille chance a Yield site spins for DelaySpin
	// iterations (a coarse stand-in for preemption mid-probe).
	DelayPm   uint32
	DelaySpin uint32
	// SkewSpinMax is the maximum start-skew spin (iterations) applied to
	// each parallel worker goroutine; 0 disables skew.
	SkewSpinMax uint32
}

// ProfileNone injects nothing; it is the grid's control cell.
var ProfileNone = Profile{Name: "none"}

// Profiles is the built-in fault-profile set used by the oracle grid
// and `phload -chaos`. ProfileNone is deliberately first: the oracle
// uses the first cell of the grid as the reference run.
var Profiles = []Profile{
	ProfileNone,
	{Name: "yield", YieldPm: 300},
	{Name: "casstorm", FailPm: 400, YieldPm: 100},
	{Name: "delay", DelayPm: 100, DelaySpin: 400, SkewSpinMax: 20000},
	{Name: "mixed", YieldPm: 150, FailPm: 200, DelayPm: 50, DelaySpin: 200, SkewSpinMax: 5000},
}

// ProfileByName looks up a built-in profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
