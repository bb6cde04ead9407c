package detres

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"phasehash/internal/chaos"
	"phasehash/internal/core"
	"phasehash/internal/parallel"
	"phasehash/internal/sequence"
)

// This file is the determinism oracle: the cross-schedule counterpart
// of SpeculativeFor's determinism-by-construction. The paper's claim is
// that a phase-concurrent table's quiescent state depends only on the
// set of operations performed, never on the schedule. The oracle
// *manufactures* schedules — replaying one generated workload across a
// seed × worker-count × fault-profile grid, with package chaos
// perturbing the probe/CAS/rehash hot paths when built with
// `-tags chaos` — and asserts that Elements(), Count() and the raw
// quiescent cell layout are byte-identical in every cell of the grid.
// On divergence it shrinks the workload and reports a minimized repro
// (distribution, seed, prefix length, grid cell, injected-site trace).

// OracleResult is one replay's quiescent observation.
type OracleResult struct {
	Elements []uint64 // deterministic packed contents
	Layout   []uint64 // raw cell array (history-independence witness)
	Count    int
	// Added is the sum of the insert phase's results (true Insert
	// results, or InsertAll's return) for runners that report it — the
	// grow runners, whose exact attribution it pins — and 0 otherwise.
	// Compared like Count.
	Added int
}

// Runner replays a workload on one table implementation: a parallel
// insert phase, a barrier, a parallel delete phase (every third input
// element), a barrier, then the quiescent observation.
type Runner interface {
	Name() string
	Run(elems []uint64, workers int) OracleResult
}

// replayPhases drives the two write phases: insert(i) for every input
// index, a barrier, then del(i) for every index ≡ 0 (mod 3). Indices
// are striped across the workers, so the per-goroutine operation order
// varies with the worker count while the operation *set* — and hence
// the deterministic quiescent state — does not.
func replayPhases(n, workers int, insert, del func(i int)) {
	if workers < 1 {
		workers = 1
	}
	stripe := func(fn func(i int), every int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if chaos.Enabled {
					chaos.SkewWorker(chaos.SiteParallelWorker)
				}
				for i := w; i < n; i += workers {
					if i%every == 0 {
						fn(i)
					}
				}
			}(w)
		}
		wg.Wait()
	}
	stripe(insert, 1)
	stripe(del, 3)
}

// WordRunner replays on a fixed-capacity WordTable[SetOps]. Capacity
// must comfortably exceed the workload's distinct-key count (keep load
// below ~0.9, as everywhere in the library).
type WordRunner struct{ Capacity int }

// Name implements Runner.
func (r WordRunner) Name() string { return "word" }

// Run implements Runner.
func (r WordRunner) Run(elems []uint64, workers int) OracleResult {
	t := core.NewWordTable[core.SetOps](r.Capacity)
	replayPhases(len(elems), workers,
		func(i int) { t.Insert(elems[i]) },
		func(i int) { t.Delete(elems[i]) })
	return OracleResult{Elements: t.Elements(), Layout: t.Snapshot(), Count: t.Count()}
}

// WordBulkRunner replays the same workload through the bulk phase
// kernels (InsertAll / DeleteAll) instead of per-element striping. Its
// operation set per phase is identical to WordRunner's, so its
// quiescent state must be byte-identical too — across the grid AND
// against WordRunner's cells (the cross-path assertion of the oracle
// tests). The blocked pool dispatch replaces worker striping as the
// schedule variation.
type WordBulkRunner struct{ Capacity int }

// Name implements Runner.
func (r WordBulkRunner) Name() string { return "word-bulk" }

// Run implements Runner.
func (r WordBulkRunner) Run(elems []uint64, workers int) OracleResult {
	t := core.NewWordTable[core.SetOps](r.Capacity)
	t.InsertAll(elems)
	t.DeleteAll(everyThird(elems))
	return OracleResult{Elements: t.Elements(), Layout: t.Snapshot(), Count: t.Count()}
}

// everyThird selects the delete-phase inputs of replayPhases (every
// index ≡ 0 mod 3) as a slice for the bulk kernels.
func everyThird(elems []uint64) []uint64 {
	del := make([]uint64, 0, len(elems)/3+1)
	for i := 0; i < len(elems); i += 3 {
		del = append(del, elems[i])
	}
	return del
}

// ShardedRunner replays through ShardedTable's per-element atomic path.
// Shards is the explicit shard count and is part of the determinism
// function (layout and Elements order depend on it), so the oracle
// always pins it — the automatic policy would derive it from the
// per-cell worker count and legitimately change the layout across the
// grid.
type ShardedRunner struct{ Capacity, Shards int }

// Name implements Runner.
func (r ShardedRunner) Name() string { return "sharded" }

// Run implements Runner.
func (r ShardedRunner) Run(elems []uint64, workers int) OracleResult {
	t := core.NewShardedTable[core.SetOps](r.Capacity, r.Shards)
	replayPhases(len(elems), workers,
		func(i int) { t.Insert(elems[i]) },
		func(i int) { t.Delete(elems[i]) })
	return OracleResult{Elements: t.Elements(), Layout: t.Snapshot(), Count: t.Count()}
}

// ShardedBulkRunner replays the workload through ShardedTable's
// owner-computes bulk kernels (radix partition, then one worker per
// shard with plain stores). Its operation set per phase matches
// ShardedRunner's, so — history independence again — its quiescent
// shard layouts must be byte-identical across the grid and against
// ShardedRunner's (RunCrossOracle), and its Elements multiset must
// equal the flat WordRunner's on the same workload (RunMultisetOracle).
type ShardedBulkRunner struct{ Capacity, Shards int }

// Name implements Runner.
func (r ShardedBulkRunner) Name() string { return "sharded-bulk" }

// Run implements Runner.
func (r ShardedBulkRunner) Run(elems []uint64, workers int) OracleResult {
	t := core.NewShardedTable[core.SetOps](r.Capacity, r.Shards)
	t.InsertAll(elems)
	t.DeleteAll(everyThird(elems))
	return OracleResult{Elements: t.Elements(), Layout: t.Snapshot(), Count: t.Count()}
}

// GrowRunner replays on a GrowTable[SetOps] from a small initial size,
// so the insert phase grows the table several times.
type GrowRunner struct{ Initial int }

// Name implements Runner.
func (r GrowRunner) Name() string { return "grow" }

// Run implements Runner.
func (r GrowRunner) Run(elems []uint64, workers int) OracleResult {
	t := core.NewGrowTable[core.SetOps](r.Initial)
	var added atomic.Int64
	replayPhases(len(elems), workers,
		func(i int) {
			if t.Insert(elems[i]) {
				added.Add(1)
			}
		},
		func(i int) { t.Delete(elems[i]) })
	return OracleResult{Elements: t.Elements(), Layout: t.Snapshot(), Count: t.Count(), Added: int(added.Load())}
}

// GrowBulkRunner is WordBulkRunner for the growing table: one InsertAll
// that grows once before it runs.
type GrowBulkRunner struct{ Initial int }

// Name implements Runner.
func (r GrowBulkRunner) Name() string { return "grow-bulk" }

// Run implements Runner.
func (r GrowBulkRunner) Run(elems []uint64, workers int) OracleResult {
	t := core.NewGrowTable[core.SetOps](r.Initial)
	added := t.InsertAll(elems)
	t.DeleteAll(everyThird(elems))
	return OracleResult{Elements: t.Elements(), Layout: t.Snapshot(), Count: t.Count(), Added: added}
}

// OracleConfig spans the replay grid. The first worker count and the
// first profile form the reference cell every other cell must match.
type OracleConfig struct {
	Dists    []sequence.Distribution // defaults to the paper's six
	N        int                     // elements per workload
	Seeds    []uint64
	Workers  []int
	Profiles []chaos.Profile // inert without the chaos build tag
}

// DefaultOracleConfig returns the grid the CI chaos job runs: all six
// key distributions of EXPERIMENTS.md × 8 seeds × 4 worker counts × 4
// fault profiles (plus the control profile as reference).
func DefaultOracleConfig(n int) OracleConfig {
	return OracleConfig{
		Dists:    sequence.AllDistributions,
		N:        n,
		Seeds:    []uint64{1, 2, 3, 5, 8, 13, 21, 34},
		Workers:  []int{1, 2, 4, 8},
		Profiles: chaos.Profiles,
	}
}

// OracleWorkload generates the single-word element stream for one grid
// row. The two string-keyed distributions are mapped to hashed word
// keys (the EXPERIMENTS.md substitution), preserving their
// duplicate-heavy structure.
func OracleWorkload(d sequence.Distribution, n int, seed uint64) []uint64 {
	switch d {
	case sequence.TrigramStr:
		return sequence.TrigramKeys(n, seed)
	case sequence.TrigramPairInt:
		return sequence.TrigramKeyPairs(n, seed)
	default:
		return sequence.WordElements(d, n, seed)
	}
}

// Divergence reports a determinism violation: a grid cell whose
// quiescent state differs from the reference cell's. It implements
// error; Error() is the minimized repro.
type Divergence struct {
	Runner     string
	Dist       sequence.Distribution
	Seed       uint64
	N          int // original workload length
	MinN       int // shortest diverging prefix found
	Workers    int
	Profile    string
	RefWorkers int
	RefProfile string
	Detail     string // first difference
	SiteTrace  string // chaos per-site fire counts, when built with -tags chaos
}

// Error formats the minimized repro.
func (d *Divergence) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "detres: determinism divergence on %s table: dist=%s seed=%d n=%d (minimized n=%d) workers=%d profile=%s vs reference workers=%d profile=%s: %s",
		d.Runner, d.Dist, d.Seed, d.N, d.MinN, d.Workers, d.Profile, d.RefWorkers, d.RefProfile, d.Detail)
	if d.SiteTrace != "" {
		fmt.Fprintf(&b, "; injected sites: %s", d.SiteTrace)
	}
	fmt.Fprintf(&b, "; replay: RunOracle(%sRunner, OracleConfig{Dists: []sequence.Distribution{%q}, N: %d, Seeds: []uint64{%d}, Workers: []int{%d, %d}, Profiles: [%s %s]})",
		d.Runner, d.Dist, d.MinN, d.Seed, d.RefWorkers, d.Workers, d.RefProfile, d.Profile)
	return b.String()
}

// RunOracle replays every workload of the grid on r and compares each
// cell's quiescent state against the reference cell. It returns nil
// when every cell agrees, or the first divergence (minimized) when the
// determinism claim is violated. It mutates the package-global worker
// count and chaos configuration while running and restores both.
func RunOracle(r Runner, cfg OracleConfig) *Divergence {
	if len(cfg.Dists) == 0 {
		cfg.Dists = sequence.AllDistributions
	}
	prevWorkers := parallel.SetNumWorkers(0)
	defer func() {
		parallel.SetNumWorkers(prevWorkers)
		chaos.Disable()
	}()
	for _, dist := range cfg.Dists {
		for _, seed := range cfg.Seeds {
			elems := OracleWorkload(dist, cfg.N, seed)
			var ref OracleResult
			haveRef := false
			for _, prof := range cfg.Profiles {
				for _, w := range cfg.Workers {
					res := runCell(r, elems, w, prof, seed)
					if !haveRef {
						ref, haveRef = res, true
						continue
					}
					if detail := compareResults(ref, res); detail != "" {
						d := &Divergence{
							Runner:     r.Name(),
							Dist:       dist,
							Seed:       seed,
							N:          cfg.N,
							MinN:       cfg.N,
							Workers:    w,
							Profile:    prof.Name,
							RefWorkers: cfg.Workers[0],
							RefProfile: cfg.Profiles[0].Name,
							Detail:     detail,
							SiteTrace:  chaos.TraceSummary(),
						}
						minimize(r, d, elems, cfg.Workers[0], cfg.Profiles[0], prof)
						return d
					}
				}
			}
		}
	}
	return nil
}

// RunCrossOracle asserts two runners are observationally identical:
// every grid cell of b must match a's reference cell (first worker
// count, first profile) on the same workload. It is the oracle row that
// pins the bulk kernels to the per-element path — pass a=WordRunner,
// b=WordBulkRunner (or the grow pair) and any schedule- or
// staging-induced layout difference between the paths is a failure.
func RunCrossOracle(a, b Runner, cfg OracleConfig) *Divergence {
	if len(cfg.Dists) == 0 {
		cfg.Dists = sequence.AllDistributions
	}
	prevWorkers := parallel.SetNumWorkers(0)
	defer func() {
		parallel.SetNumWorkers(prevWorkers)
		chaos.Disable()
	}()
	for _, dist := range cfg.Dists {
		for _, seed := range cfg.Seeds {
			elems := OracleWorkload(dist, cfg.N, seed)
			ref := runCell(a, elems, cfg.Workers[0], cfg.Profiles[0], seed)
			for _, prof := range cfg.Profiles {
				for _, w := range cfg.Workers {
					res := runCell(b, elems, w, prof, seed)
					if detail := compareResults(ref, res); detail != "" {
						d := &Divergence{
							Runner:     a.Name() + " vs " + b.Name(),
							Dist:       dist,
							Seed:       seed,
							N:          cfg.N,
							MinN:       cfg.N,
							Workers:    w,
							Profile:    prof.Name,
							RefWorkers: cfg.Workers[0],
							RefProfile: cfg.Profiles[0].Name,
							Detail:     detail,
							SiteTrace:  chaos.TraceSummary(),
						}
						return d
					}
				}
			}
		}
	}
	return nil
}

// RunMultisetOracle asserts two runners store the same element *set*
// without requiring the same layout: every grid cell of b must match
// a's reference cell on Count and on the sorted Elements multiset. It
// is the oracle row relating differently-shaped deterministic tables —
// e.g. the flat WordRunner against a ShardedBulkRunner, whose layouts
// and Elements orders legitimately differ (the shard count is part of
// the layout function) while the contents must not.
func RunMultisetOracle(a, b Runner, cfg OracleConfig) *Divergence {
	if len(cfg.Dists) == 0 {
		cfg.Dists = sequence.AllDistributions
	}
	prevWorkers := parallel.SetNumWorkers(0)
	defer func() {
		parallel.SetNumWorkers(prevWorkers)
		chaos.Disable()
	}()
	for _, dist := range cfg.Dists {
		for _, seed := range cfg.Seeds {
			elems := OracleWorkload(dist, cfg.N, seed)
			ref := runCell(a, elems, cfg.Workers[0], cfg.Profiles[0], seed)
			sortedRef := append([]uint64(nil), ref.Elements...)
			sort.Slice(sortedRef, func(i, j int) bool { return sortedRef[i] < sortedRef[j] })
			for _, prof := range cfg.Profiles {
				for _, w := range cfg.Workers {
					res := runCell(b, elems, w, prof, seed)
					if detail := compareMultisets(ref.Count, sortedRef, res); detail != "" {
						return &Divergence{
							Runner:     a.Name() + " vs " + b.Name() + " (multiset)",
							Dist:       dist,
							Seed:       seed,
							N:          cfg.N,
							MinN:       cfg.N,
							Workers:    w,
							Profile:    prof.Name,
							RefWorkers: cfg.Workers[0],
							RefProfile: cfg.Profiles[0].Name,
							Detail:     detail,
							SiteTrace:  chaos.TraceSummary(),
						}
					}
				}
			}
		}
	}
	return nil
}

// compareMultisets returns "" when res holds exactly the sortedRef
// multiset (and refCount elements), or the first difference.
func compareMultisets(refCount int, sortedRef []uint64, res OracleResult) string {
	if refCount != res.Count {
		return fmt.Sprintf("Count %d vs %d", refCount, res.Count)
	}
	if len(sortedRef) != len(res.Elements) {
		return fmt.Sprintf("len(Elements) %d vs %d", len(sortedRef), len(res.Elements))
	}
	got := append([]uint64(nil), res.Elements...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := range sortedRef {
		if sortedRef[i] != got[i] {
			return fmt.Sprintf("sorted Elements[%d] = %#x vs %#x", i, sortedRef[i], got[i])
		}
	}
	return ""
}

// runCell executes one grid cell: arm the fault profile (seeded with
// the workload seed so the repro is just the grid coordinates), pin the
// library worker count, replay.
func runCell(r Runner, elems []uint64, workers int, prof chaos.Profile, seed uint64) OracleResult {
	if prof.Name == chaos.ProfileNone.Name {
		chaos.Disable()
	} else {
		chaos.Configure(prof, seed)
	}
	parallel.SetNumWorkers(workers)
	res := r.Run(elems, workers)
	chaos.Disable()
	return res
}

// compareResults returns "" when the two observations are identical,
// or a description of the first difference.
func compareResults(a, b OracleResult) string {
	if a.Count != b.Count {
		return fmt.Sprintf("Count %d vs %d", a.Count, b.Count)
	}
	if a.Added != b.Added {
		return fmt.Sprintf("insert results sum %d vs %d", a.Added, b.Added)
	}
	if len(a.Elements) != len(b.Elements) {
		return fmt.Sprintf("len(Elements) %d vs %d", len(a.Elements), len(b.Elements))
	}
	for i := range a.Elements {
		if a.Elements[i] != b.Elements[i] {
			return fmt.Sprintf("Elements[%d] = %#x vs %#x", i, a.Elements[i], b.Elements[i])
		}
	}
	if len(a.Layout) != len(b.Layout) {
		return fmt.Sprintf("layout size %d vs %d cells", len(a.Layout), len(b.Layout))
	}
	for i := range a.Layout {
		if a.Layout[i] != b.Layout[i] {
			return fmt.Sprintf("quiescent cell %d = %#x vs %#x", i, a.Layout[i], b.Layout[i])
		}
	}
	return ""
}

// minimize shrinks the diverging workload by prefix halving: as long as
// half the prefix still reproduces a divergence between the reference
// cell and the failing cell (retrying a few times, since fault
// injection is probabilistic), keep the half. Updates d.MinN, d.Detail
// and d.SiteTrace in place.
func minimize(r Runner, d *Divergence, elems []uint64, refW int, refProf, prof chaos.Profile) {
	diverges := func(m int) (string, string, bool) {
		for attempt := 0; attempt < 3; attempt++ {
			ref := runCell(r, elems[:m], refW, refProf, d.Seed)
			res := runCell(r, elems[:m], d.Workers, prof, d.Seed)
			trace := chaos.TraceSummary()
			if detail := compareResults(ref, res); detail != "" {
				return detail, trace, true
			}
		}
		return "", "", false
	}
	m := len(elems)
	for m/2 >= 16 {
		detail, trace, ok := diverges(m / 2)
		if !ok {
			break
		}
		m /= 2
		d.MinN, d.Detail, d.SiteTrace = m, detail, trace
	}
}
