// Package explore drives the trade-off exploration of the paper: it
// sweeps the on-chip layer size, runs the full MHLA+TE flow at every
// point, and reports the resulting (size, energy, time) trade-off
// curve and its Pareto frontier. This is the "thorough trade-off
// exploration for different memory layer sizes" the technique claims
// as its purpose.
//
// The sweep runs over the program's compiled workspace (validation,
// data-reuse analysis, lifetime tables — built once by
// workspace.Compile) and evaluates the sweep points concurrently over
// a bounded worker pool: every point shares the immutable workspace
// and rebuilds only the platform-dependent half of the flow. Results are deterministic — Points come back in
// size order and each point's Result is independent of scheduling.
package explore

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mhla/internal/assign"
	"mhla/internal/core"
	"mhla/internal/energy"
	"mhla/internal/pareto"
	"mhla/internal/workspace"
)

// DefaultSizes returns the standard L1 sweep: 256 B to 64 KiB in
// half-power-of-two steps (17 points — the powers of two plus their
// midpoints). The finer grid resolves the knees of the trade-off
// curve between the power-of-two jumps; the incremental warm-started
// sweep keeps the denser default affordable.
func DefaultSizes() []int64 {
	var sizes []int64
	for c := int64(256); c <= 64*1024; c *= 2 {
		sizes = append(sizes, c)
		if c < 64*1024 {
			sizes = append(sizes, c+c/2)
		}
	}
	return sizes
}

// Point is one evaluated sweep point.
type Point struct {
	// L1 is the on-chip capacity of the point.
	L1 int64
	// Result is the full flow outcome at this size.
	Result *core.Result
}

// Sweep is the outcome of an exploration.
type Sweep struct {
	// Program names the explored application.
	Program string
	// Points are the evaluated sizes, in the order they were given.
	Points []Point
}

// Options configure a workspace sweep beyond the per-point flow
// configuration.
type Options struct {
	// Config is the per-point flow configuration; Config.Platform is
	// ignored (the sweep constructs the two-level platform per size).
	// Config.Progress and Config.Search.Progress are serialized
	// across points, so neither callback ever runs concurrently with
	// itself.
	Config core.Config
	// Workers bounds the sweep points evaluated concurrently; <= 0
	// means GOMAXPROCS. Results are identical at every worker count.
	Workers int
}

// SweepWorkspace sweeps the given on-chip sizes over a precompiled
// workspace: the program-side analysis is shared read-only by every
// point. With the greedy or exhaustive engine the points are
// independent and are evaluated concurrently on a bounded worker
// pool; with the branch-and-bound engine the sweep is one incremental
// search — sizes are searched in ascending order along a warm-start
// chain (each point's optimum, re-scored under the next platform,
// seeds the next point's incumbent; see assign.Options.Incumbent)
// while the platform-shape option catalog is shared across points and
// the finished points' time-extension/evaluation work overlaps later
// searches on the worker pool. Any Incumbent configured on
// opts.Config.Search is overwritten by the chain.
//
// Either way the returned Points are in input size order and
// byte-identical to a sequential fresh-per-point sweep at every
// worker count — warm-start chaining only shrinks each point's
// explored state count (Result.SearchStates), and the chain order is
// a pure function of (workspace, sizes), never of scheduling. A
// failing point stops further points from being dispatched (points
// already in flight finish), and the first failure in evaluation
// order — input order for the concurrent path, ascending-size chain
// order for the incremental path — is returned as the sweep error;
// each point's outcome is a pure function of (workspace, size), so
// the reported error is deterministic at every worker count. When ctx
// is cancelled the sweep returns promptly with ctx.Err().
func SweepWorkspace(ctx context.Context, ws *workspace.Workspace, sizes []int64, opts Options) (*Sweep, error) {
	if ws == nil {
		return nil, fmt.Errorf("explore: nil workspace")
	}
	cfg := opts.Config
	if !cfg.Search.IsZero() {
		if err := cfg.Search.Validate(); err != nil {
			return nil, fmt.Errorf("explore: %w", err)
		}
	}
	if len(sizes) == 0 {
		sizes = DefaultSizes()
	}
	// Per-point flows run on worker goroutines; serialize the
	// caller's progress callbacks — both the flow-level one and a
	// search-level one configured on the options — so neither races
	// with itself.
	if cfg.Progress != nil {
		var mu sync.Mutex
		inner := cfg.Progress
		cfg.Progress = func(pr core.Progress) {
			mu.Lock()
			defer mu.Unlock()
			inner(pr)
		}
	}
	if cfg.Search.Progress != nil {
		var mu sync.Mutex
		inner := cfg.Search.Progress
		cfg.Search.Progress = func(sp assign.Progress) {
			mu.Lock()
			defer mu.Unlock()
			inner(sp)
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sizes) {
		workers = len(sizes)
	}

	// The warm-start chain pays off exactly when searches prune — the
	// branch-and-bound engine. Greedy ignores incumbents and the
	// exhaustive reference never prunes, so their points stay
	// independent and run on the concurrent pool.
	if cfg.Search.Engine == assign.BranchBound {
		return sweepChained(ctx, ws, sizes, cfg, workers)
	}

	// A point failure stops further dispatch; points already in
	// flight run to completion so their own (deterministic) errors
	// are never masked by a sibling's cancellation. Only the parent
	// context aborts in-flight points.
	results := make([]*core.Result, len(sizes))
	errs := make([]error, len(sizes))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Check the stop conditions before claiming an index: a
				// claimed point always runs, so every recorded error is
				// the point's own and the lowest recorded index is the
				// same failure a sequential sweep reports (claims ascend,
				// so all lower indices were claimed and evaluated too).
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(sizes) {
					return
				}
				pcfg := cfg
				pcfg.Platform = energy.TwoLevel(sizes[i])
				res, err := core.RunWorkspace(ctx, ws, pcfg)
				results[i], errs[i] = res, err
				if err != nil {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Deterministic error selection: every recorded error is the
	// point's own (no sibling cancelled it), so the lowest index wins
	// at any worker count.
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("explore: size %d: %w", sizes[i], err)
		}
	}
	sw := &Sweep{Program: ws.Program.Name}
	for i, res := range results {
		if res == nil {
			// Defensive: a point was skipped or cancelled without any
			// point reporting a real failure and without the parent
			// context being cancelled.
			err := errs[i]
			if err == nil {
				err = context.Canceled
			}
			return nil, fmt.Errorf("explore: size %d: %w", sizes[i], err)
		}
		sw.Points = append(sw.Points, Point{L1: sizes[i], Result: res})
	}
	return sw, nil
}

// sweepChained is the incremental branch-and-bound sweep: one search
// chained across the points instead of N independent ones.
//
// The chain visits sizes in ascending order (ties keep input order),
// so the order — and with it every point's incumbent, and so every
// point's result — is a pure function of (workspace, sizes). Each
// search runs to completion before the next begins (intra-point
// parallelism stays with assign.Options.Workers); what overlaps is
// the platform-independent tail of finished points — time-extension
// scheduling and operating-point evaluation, via the core
// Begin/Finish seam — which the worker pool drains while later
// points search. The chain hands each point's optimal assignment to
// the next point as its warm-start incumbent; assign re-scores it
// under the new platform (capacities and costs both change with L1
// size) and falls back to the greedy seed when it no longer fits, so
// the incumbent is a bound, never an answer.
//
// A Begin (search) failure stops the chain; Finish failures of points
// already handed to the pool are collected per point. The first
// failure in chain order is reported, which is the same failure a
// sequential ascending sweep reports at any worker count.
func sweepChained(ctx context.Context, ws *workspace.Workspace, sizes []int64, cfg core.Config, workers int) (*Sweep, error) {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] < sizes[order[b]] })

	results := make([]*core.Result, len(sizes))
	errs := make([]error, len(sizes))

	type finishJob struct {
		idx     int
		pending *core.Pending
	}
	jobs := make(chan finishJob, len(sizes))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				results[j.idx], errs[j.idx] = j.pending.Finish(ctx)
			}
		}()
	}

	var incumbent *assign.Assignment
	for _, idx := range order {
		pcfg := cfg
		pcfg.Platform = energy.TwoLevel(sizes[idx])
		pcfg.Search.Incumbent = incumbent
		pending, err := core.BeginWorkspace(ctx, ws, pcfg)
		if err != nil {
			errs[idx] = err
			break
		}
		incumbent = pending.Assignment()
		jobs <- finishJob{idx: idx, pending: pending}
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, idx := range order {
		if errs[idx] != nil {
			return nil, fmt.Errorf("explore: size %d: %w", sizes[idx], errs[idx])
		}
	}
	sw := &Sweep{Program: ws.Program.Name}
	for i, res := range results {
		if res == nil {
			return nil, fmt.Errorf("explore: size %d: %w", sizes[i], context.Canceled)
		}
		sw.Points = append(sw.Points, Point{L1: sizes[i], Result: res})
	}
	return sw, nil
}

// TEPoints returns the MHLA+TE operating points as Pareto candidates.
func (s *Sweep) TEPoints() []pareto.Point {
	pts := make([]pareto.Point, len(s.Points))
	for i, p := range s.Points {
		pts[i] = pareto.Point{
			Label:  fmt.Sprintf("l1-%d", p.L1),
			Size:   p.L1,
			Cycles: p.Result.TE.Cycles,
			Energy: p.Result.TE.Energy,
		}
	}
	return pts
}

// Frontier returns the Pareto frontier of the MHLA+TE points.
func (s *Sweep) Frontier() []pareto.Point { return pareto.Frontier(s.TEPoints()) }

// CSV renders the sweep as comma-separated values with a header, one
// row per size: the four operating points in cycles, the energies,
// and the engine that produced the point's assignment.
func (s *Sweep) CSV() string {
	var b strings.Builder
	b.WriteString("app,l1_bytes,orig_cycles,mhla_cycles,te_cycles,ideal_cycles,orig_pj,mhla_pj,engine\n")
	for _, p := range s.Points {
		r := p.Result
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d,%.0f,%.0f,%s\n",
			s.Program, p.L1,
			r.Original.Cycles, r.MHLA.Cycles, r.TE.Cycles, r.Ideal.Cycles,
			r.Original.Energy, r.MHLA.Energy, r.Engine)
	}
	return b.String()
}

// sweepJSON mirrors the modelio schema conventions (snake_case keys,
// one object per point) for machine consumption of a sweep.
type sweepJSON struct {
	App    string      `json:"app"`
	Points []pointJSON `json:"points"`
}

type pointJSON struct {
	L1Bytes int64 `json:"l1_bytes"`
	ResultFields
}

// ResultFields is the shared snake_case encoding of one flow result —
// the common core of a Sweep.JSON point and the facade's ResultJSON,
// defined once so the two wire schemas cannot drift apart.
type ResultFields struct {
	OrigCycles   int64   `json:"orig_cycles"`
	MHLACycles   int64   `json:"mhla_cycles"`
	TECycles     int64   `json:"te_cycles"`
	IdealCycles  int64   `json:"ideal_cycles"`
	OrigPJ       float64 `json:"orig_pj"`
	MHLAPJ       float64 `json:"mhla_pj"`
	SearchStates int     `json:"search_states"`
	TEApplicable bool    `json:"te_applicable"`
	// Engine is the engine that produced the point's assignment —
	// for the portfolio engine, the member that won the race.
	Engine string `json:"engine"`
}

// ResultFieldsOf extracts the shared wire fields of a flow result.
func ResultFieldsOf(r *core.Result) ResultFields {
	return ResultFields{
		OrigCycles:   r.Original.Cycles,
		MHLACycles:   r.MHLA.Cycles,
		TECycles:     r.TE.Cycles,
		IdealCycles:  r.Ideal.Cycles,
		OrigPJ:       r.Original.Energy,
		MHLAPJ:       r.MHLA.Energy,
		SearchStates: r.SearchStates,
		TEApplicable: r.Plan != nil && r.Plan.Applicable,
		Engine:       r.Engine.String(),
	}
}

// JSON renders the sweep as indented JSON following the modelio
// naming conventions, one object per sweep point, for external
// tooling (plotting, regression tracking).
func (s *Sweep) JSON() ([]byte, error) {
	out := sweepJSON{App: s.Program, Points: make([]pointJSON, 0, len(s.Points))}
	for _, p := range s.Points {
		out.Points = append(out.Points, pointJSON{L1Bytes: p.L1, ResultFields: ResultFieldsOf(p.Result)})
	}
	return json.MarshalIndent(out, "", "  ")
}

// String renders a compact sweep table with normalized values.
func (s *Sweep) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exploration of %s\n", s.Program)
	fmt.Fprintf(&b, "%10s %9s %9s %9s %9s\n", "l1", "mhla", "te", "ideal", "energy")
	for _, p := range s.Points {
		g := p.Result.Gains()
		fmt.Fprintf(&b, "%10d %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
			p.L1, 100*g.MHLACycles, 100*g.TECycles, 100*g.IdealCycles, 100*g.MHLAEnergy)
	}
	return b.String()
}
