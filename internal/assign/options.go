package assign

import (
	"context"
	"fmt"
	"time"

	"mhla/internal/platform"
	"mhla/internal/reuse"
	"mhla/internal/workspace"
)

// Objective selects what the assignment search minimizes.
type Objective int

const (
	// MinEnergy minimizes memory-subsystem energy (the primary MHLA
	// objective; performance improves alongside).
	MinEnergy Objective = iota
	// MinTime minimizes execution cycles.
	MinTime
	// MinEDP minimizes the energy-delay product.
	MinEDP
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case MinEnergy:
		return "energy"
	case MinTime:
		return "time"
	case MinEDP:
		return "edp"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Score maps a cost to the scalar being minimized.
func (o Objective) Score(c Cost) float64 {
	switch o {
	case MinTime:
		return float64(c.Cycles)
	case MinEDP:
		return c.Energy * float64(c.Cycles)
	default:
		return c.Energy
	}
}

// Engine names a search algorithm registered in the engine registry
// (registry.go). The value is the registry key itself — also the wire
// name the transport layers parse — so adding an engine never touches
// this type. The zero value selects the default greedy engine.
type Engine string

const (
	// Greedy is the steepest-descent heuristic of the MHLA tool:
	// start from the out-of-the-box placement and repeatedly apply
	// the best-gain move that still fits.
	Greedy Engine = "greedy"
	// BranchBound explores the full decision space with lower-bound
	// pruning; optimal, for small/medium problems.
	BranchBound Engine = "bnb"
	// Exhaustive explores the full decision space without bound
	// pruning; a reference for tests.
	Exhaustive Engine = "exhaustive"
	// Stochastic is the seeded large-neighborhood search: start from
	// the greedy assignment and repeatedly re-decide a few random
	// decisions, keeping strict improvements (with deterministic
	// diversification kicks on stalls). Byte-reproducible for a fixed
	// Options.Seed; honors Options.Deadline as an anytime budget.
	Stochastic Engine = "lns"
	// Portfolio races greedy, branch and bound and the stochastic
	// engine under one Options.Deadline and returns the best incumbent
	// with per-member provenance (Result.Portfolio). With no deadline
	// every member runs to completion and the result is byte-identical
	// to BranchBound's.
	Portfolio Engine = "portfolio"
)

// normalized maps the zero value to the default greedy engine.
func (e Engine) normalized() Engine {
	if e == "" {
		return Greedy
	}
	return e
}

// UsesWorkers reports whether the engine honors Options.Workers (the
// registry's UsesWorkers capability; unknown names report false).
// Transport layers use this to decide which nesting level of a sweep
// or batch owns the parallelism.
func (e Engine) UsesWorkers() bool {
	info, _, err := LookupEngine(e)
	return err == nil && info.UsesWorkers
}

// String names the engine (the registry name; "" prints as the greedy
// default it selects).
func (e Engine) String() string { return string(e.normalized()) }

// Progress is a snapshot of a running search, delivered to the
// Options.Progress callback (callbacks must be fast and must not
// retain the snapshot's slices). The greedy engine calls it from the
// searching goroutine; the parallel exact engines call it from their
// worker goroutines, serialized, so the callback never runs
// concurrently with itself.
type Progress struct {
	// Engine is the running algorithm.
	Engine Engine
	// States counts candidate states evaluated so far.
	States int
	// Iter counts completed greedy iterations (0 for exact engines).
	Iter int
	// BestScore is the best objective score found so far (objective
	// units; +Inf until a first complete state exists).
	BestScore float64
}

// ProgressFunc receives search progress snapshots.
type ProgressFunc func(Progress)

// Options configure the assignment search.
type Options struct {
	// Policy is the copy transfer policy (Slide exploits
	// inter-iteration reuse; Refetch is the ablation baseline).
	Policy reuse.Policy
	// Objective is the quantity minimized.
	Objective Objective
	// InPlace enables lifetime-aware capacity estimation.
	InPlace bool
	// Engine selects the algorithm.
	Engine Engine
	// GainPerByte makes the greedy rank moves by gain per byte of
	// on-chip space consumed rather than absolute gain.
	GainPerByte bool
	// MaxStates caps the states (complete assignments) evaluated by
	// BranchBound/Exhaustive. The cap applies to each independent
	// subtree task of the parallel search, and a result whose total
	// state count exceeds it is conservatively flagged incomplete, so
	// any search reported Complete stayed within the cap and any
	// search that would finish under the cap is never truncated —
	// regardless of the worker count.
	MaxStates int
	// MaxGreedyIters caps greedy iterations (a safety net; the search
	// terminates on its own because cost strictly decreases).
	MaxGreedyIters int
	// Workers caps the goroutines the exact engines (BranchBound,
	// Exhaustive) fan their independent subtree searches over. 0 means
	// GOMAXPROCS; 1 forces a single-threaded search. The result is
	// byte-identical at every worker count. The greedy engine is
	// inherently sequential and ignores Workers. Negative values are
	// rejected by Validate.
	Workers int
	// Seed seeds the stochastic engine's random source (the portfolio
	// engine passes it to its stochastic member). Any value is valid,
	// 0 included; for a fixed seed the stochastic engine is
	// byte-reproducible (absent a Deadline). Engines without the
	// UsesSeed capability ignore it.
	Seed int64
	// Deadline, when positive, bounds the wall-clock time of the
	// anytime engines (Stochastic, Portfolio): they stop at the
	// deadline and return the best incumbent found so far, flagged
	// incomplete. The exact and greedy engines ignore it (bound them
	// with a context deadline, which aborts instead of truncating).
	// Negative values are rejected by Validate.
	Deadline time.Duration
	// Incumbent, when non-nil, warm-starts the BranchBound engine with
	// a known-good assignment — typically a neighboring L1-sweep
	// point's optimum (explore.SweepWorkspace chains sweep points this
	// way; see that package). The incumbent must have been built over
	// the same workspace the search runs on (SearchWorkspace rejects a
	// mismatch with a typed *OptionError); it may have been built for
	// a *different* platform — it is re-validated and re-scored under
	// the search's platform, and the search silently keeps its own
	// greedy seed when the incumbent no longer maps or fits, or scores
	// no better. A complete warm-started
	// search returns byte-identical assignments and costs to a
	// greedy-seeded one; only the explored state count shrinks (an
	// incomplete search — MaxStates exhausted — may differ, as the
	// budget then cuts a differently-shaped tree). Greedy and
	// Exhaustive ignore the seed.
	Incumbent *Assignment
	// Progress, when non-nil, receives periodic search snapshots:
	// after every greedy iteration and every few thousand explored
	// nodes of the exact engines.
	Progress ProgressFunc
}

// IsZero reports whether every option is unset; callers treat the
// zero value as "use DefaultOptions".
func (o Options) IsZero() bool {
	return o.Policy == 0 && o.Objective == 0 && !o.InPlace && o.Engine == "" &&
		!o.GainPerByte && o.MaxStates == 0 && o.MaxGreedyIters == 0 &&
		o.Workers == 0 && o.Seed == 0 && o.Deadline == 0 &&
		o.Progress == nil && o.Incumbent == nil
}

// OptionError reports an invalid search option or facade input. It is
// returned (possibly wrapped) by SearchContext and by the pkg/mhla
// facade; use errors.As to recover the offending field.
type OptionError struct {
	// Field names the rejected option, e.g. "Workers".
	Field string
	// Reason says why the value is invalid.
	Reason string
}

// Error renders the rejection.
func (e *OptionError) Error() string {
	return fmt.Sprintf("assign: invalid option %s: %s", e.Field, e.Reason)
}

// Validate rejects option values that earlier versions silently
// papered over: negative counts and out-of-range enums now fail with
// a typed *OptionError instead of falling back to defaults. Zero
// counts still mean "use the default".
func (o Options) Validate() error {
	switch o.Policy {
	case reuse.Slide, reuse.Refetch:
	default:
		return &OptionError{Field: "Policy", Reason: fmt.Sprintf("unknown policy %v", o.Policy)}
	}
	switch o.Objective {
	case MinEnergy, MinTime, MinEDP:
	default:
		return &OptionError{Field: "Objective", Reason: fmt.Sprintf("unknown objective %v", o.Objective)}
	}
	if _, _, err := LookupEngine(o.Engine); err != nil {
		return err
	}
	if o.MaxStates < 0 {
		return &OptionError{Field: "MaxStates", Reason: fmt.Sprintf("negative state cap %d", o.MaxStates)}
	}
	if o.MaxGreedyIters < 0 {
		return &OptionError{Field: "MaxGreedyIters", Reason: fmt.Sprintf("negative iteration cap %d", o.MaxGreedyIters)}
	}
	if o.Workers < 0 {
		return &OptionError{Field: "Workers", Reason: fmt.Sprintf("negative worker count %d", o.Workers)}
	}
	if o.Deadline < 0 {
		return &OptionError{Field: "Deadline", Reason: fmt.Sprintf("negative deadline %v", o.Deadline)}
	}
	return nil
}

// DefaultOptions returns the configuration used by the experiments:
// slide policy, energy objective, in-place estimation, greedy engine
// with the gain-per-byte ranking of the MHLA tool (gains are weighed
// against the on-chip bytes they consume). Absolute-gain ranking is
// available as an ablation; it prefers coarser, more DMA-friendly
// granularities at higher space cost.
func DefaultOptions() Options {
	return Options{
		Policy:         reuse.Slide,
		Objective:      MinEnergy,
		InPlace:        true,
		Engine:         Greedy,
		GainPerByte:    true,
		MaxStates:      500_000,
		MaxGreedyIters: 10_000,
	}
}

// Result is the outcome of an assignment search.
type Result struct {
	// Assignment is the best assignment found.
	Assignment *Assignment
	// Cost is its evaluated cost (no time extensions).
	Cost Cost
	// Baseline is the out-of-the-box cost for reference.
	Baseline Cost
	// States counts evaluated candidate states (moves for greedy,
	// leaves for the exact engines).
	States int
	// Complete reports whether the engine finished its full search
	// budget: within MaxStates for the exact engines, the full
	// iteration budget for the stochastic engine (false when a
	// Deadline truncated it), the exact member's completion for the
	// portfolio. Always true for greedy.
	Complete bool
	// Engine names the engine that produced the assignment — for the
	// portfolio, the winning member (the portfolio's own name appears
	// only when every member was cut off and the out-of-the-box
	// fallback won). This is the provenance the transport layers
	// surface per result and per sweep point.
	Engine Engine
	// Portfolio is the per-member provenance of a portfolio search,
	// in the fixed racing order (BranchBound, Greedy, Stochastic);
	// nil for the plain engines.
	Portfolio []EngineRun
}

// EngineRun records one portfolio member's outcome.
type EngineRun struct {
	// Engine is the member.
	Engine Engine
	// Score is the member's final objective score (+Inf when the
	// deadline cut it off before it produced a result).
	Score float64
	// States counts the member's evaluated candidate states (0 when
	// it produced no result).
	States int
	// Elapsed is the member's wall-clock time. It is measurement, not
	// search state: equal searches may record different times, so it
	// is deliberately kept out of every wire encoding.
	Elapsed time.Duration
	// Complete reports whether the member finished its full budget.
	Complete bool
	// Won marks the member whose result the portfolio returned.
	Won bool
}

// Search runs the assignment step on an analyzed program. It is
// SearchContext with a background context.
func Search(an *reuse.Analysis, plat *platform.Platform, opts Options) (*Result, error) {
	return SearchContext(context.Background(), an, plat, opts)
}

// SearchContext runs the assignment step on an analyzed program,
// honoring cancellation and deadlines: when ctx is cancelled the
// engines stop promptly and SearchContext returns ctx.Err(). It
// compiles the program-side workspace tables itself; callers that
// evaluate one program on many platforms (the L1 sweep, the batch
// Explorer) compile once and call SearchWorkspace instead.
func SearchContext(ctx context.Context, an *reuse.Analysis, plat *platform.Platform, opts Options) (*Result, error) {
	return SearchWorkspace(ctx, workspace.FromAnalysis(an), plat, opts)
}

// SearchWorkspace runs the assignment step over a precompiled
// workspace. All engines read the workspace's program-side tables
// (spans, lifetime objects, compute cycles) and rebuild only the
// platform-dependent half (option catalogs, cost contributions) per
// call, so evaluating one program against many platforms analyzes the
// program exactly once.
func SearchWorkspace(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := plat.Validate(); err != nil {
		return nil, fmt.Errorf("assign: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The incumbent's decisions are replayed against this workspace's
	// decision tables, so it must come from the same compiled
	// workspace. The platform may differ (that is the point of the
	// warm-start chain) — installSeed re-validates and re-scores it.
	if opts.Incumbent != nil && opts.Incumbent.ws != ws {
		return nil, &OptionError{Field: "Incumbent", Reason: "incumbent assignment was built over a different workspace"}
	}
	if opts.MaxGreedyIters == 0 {
		opts.MaxGreedyIters = 10_000
	}
	if opts.MaxStates == 0 {
		opts.MaxStates = 500_000
	}
	opts.Engine = opts.Engine.normalized()
	baseline := NewInWorkspace(ws, plat, opts.Policy)
	baseline.InPlace = opts.InPlace
	baseCost := baseline.Evaluate(EvalOptions{})

	// Validate resolved the name already; re-resolving here keeps the
	// dispatch a single registry read.
	_, run, err := LookupEngine(opts.Engine)
	if err != nil {
		return nil, err
	}
	res := run(ctx, ws, plat, opts)
	if res == nil {
		return nil, ctx.Err()
	}
	res.Baseline = baseCost
	return res, nil
}
