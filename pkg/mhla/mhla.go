// Package mhla is the public facade of the MHLA reproduction: the
// complete layer-assignment + time-extension tool flow of
//
//	M. Dasygenis, E. Brockmeyer, B. Durinck, F. Catthoor, D. Soudris,
//	A. Thanailakis. "A Memory Hierarchical Layer Assigning and
//	Prefetching Technique to Overcome the Memory Performance/Energy
//	Bottleneck." DATE 2005.
//
// behind one import. The entry point is Run with functional options:
//
//	res, err := mhla.Run(ctx, prog,
//		mhla.WithPlatform(mhla.TwoLevel(4096)),
//		mhla.WithObjective(mhla.Energy),
//		mhla.WithEngine(mhla.BnB),
//	)
//
// Run honors ctx: cancellation or a deadline aborts even a long
// branch-and-bound search promptly, and WithProgress streams search
// snapshots while the flow runs. When one program is evaluated
// against many platforms, Compile builds its platform-independent
// analysis once and WithWorkspace reuses it per call (SweepL1 and
// the Explorer do this automatically). For batch work — many
// applications, L1 sizes and objectives at once — Explorer fans a
// job list out over a worker pool with deterministic result ordering;
// Grid expands an app x size x objective cross product into such a
// job list. The
// rest of the package re-exports the stable model-building, platform,
// analysis, scheduling, simulation and reporting APIs; DESIGN.md maps
// them to the internal packages.
package mhla

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mhla/internal/assign"
	"mhla/internal/core"
	"mhla/internal/energy"
	"mhla/internal/platform"
	"mhla/internal/workspace"
)

// DefaultL1 is the on-chip scratchpad capacity (bytes) Run assumes
// when no platform option is given: a 4 KiB L1 over SDRAM, the
// mid-range point of the paper's exploration.
const DefaultL1 = 4096

// config accumulates the functional options into the internal flow
// configuration.
type config struct {
	platform  *platform.Platform
	search    assign.Options
	disableTE bool
	progress  core.ProgressFunc
	// workspace, when non-nil, is the precompiled program analysis
	// Run/SweepL1 reuse instead of compiling their own.
	workspace *Workspace
	// sweepWorkers bounds SweepL1's concurrent sweep points (0 =
	// GOMAXPROCS).
	sweepWorkers int
	// err records the first invalid facade input; entry points return
	// it (a typed *OptionError) instead of running on a silently
	// patched configuration.
	err error
}

// fail records the first invalid input.
func (c *config) fail(field, reason string) {
	if c.err == nil {
		c.err = &assign.OptionError{Field: field, Reason: reason}
	}
}

func newConfig(opts []Option) *config {
	cfg := &config{search: assign.DefaultOptions()}
	for _, o := range opts {
		o(cfg)
	}
	if cfg.platform == nil {
		cfg.platform = energy.TwoLevel(DefaultL1)
	}
	if cfg.err == nil {
		if err := cfg.search.Validate(); err != nil {
			cfg.err = err
		}
	}
	return cfg
}

func (c *config) coreConfig() core.Config {
	return core.Config{
		Platform:  c.platform,
		Search:    c.search,
		DisableTE: c.disableTE,
		Progress:  c.progress,
	}
}

// Option configures a Run, Sweep, Search or Explorer job.
type Option func(*config)

// WithPlatform targets the given architecture. The default is
// TwoLevel(DefaultL1). A nil platform or one without at least two
// memory layers is rejected with a typed *OptionError.
func WithPlatform(p *Platform) Option {
	return func(c *config) {
		if p == nil {
			c.fail("Platform", "nil platform")
			return
		}
		if len(p.Layers) < 2 {
			c.fail("Platform", fmt.Sprintf("need at least 2 memory layers, have %d", len(p.Layers)))
			return
		}
		c.platform = p
	}
}

// WithL1 targets the standard two-level experiment platform (L1
// scratchpad of the given byte capacity over SDRAM, with DMA). A
// non-positive capacity is rejected with a typed *OptionError.
func WithL1(bytes int64) Option {
	return func(c *config) {
		if bytes <= 0 {
			c.fail("L1", fmt.Sprintf("capacity %d bytes, must be positive", bytes))
			return
		}
		c.platform = energy.TwoLevel(bytes)
	}
}

// WithObjective selects the quantity the assignment search minimizes:
// Energy (default), Time or EDP.
func WithObjective(o Objective) Option {
	return func(c *config) { c.search.Objective = o }
}

// WithEngine selects the search algorithm by registry name: Greedy
// (default), BnB, Exhaustive, Stochastic or Portfolio — see Engines
// for the live list and each engine's capabilities. Unknown names are
// rejected with a typed *OptionError.
func WithEngine(e Engine) Option {
	return func(c *config) { c.search.Engine = e }
}

// WithSeed seeds the stochastic engine's random source (the portfolio
// engine hands it to its stochastic member). Any value is valid, 0
// included; for a fixed seed the stochastic engine is
// byte-reproducible (absent a deadline). Engines without the seed
// capability ignore it.
func WithSeed(seed int64) Option {
	return func(c *config) { c.search.Seed = seed }
}

// WithDeadline bounds the wall-clock time of the anytime engines
// (Stochastic, Portfolio): they stop at the deadline and return the
// best incumbent found so far, flagged incomplete. 0 (the default)
// means no deadline; the greedy and exact engines ignore the setting
// (bound them with a context deadline, which aborts instead of
// truncating). Negative durations are rejected with a typed
// *OptionError.
func WithDeadline(d time.Duration) Option {
	return func(c *config) {
		if d < 0 {
			c.fail("Deadline", fmt.Sprintf("negative deadline %v", d))
			return
		}
		c.search.Deadline = d
	}
}

// WithPolicy selects the copy transfer policy: Slide (default,
// exploits inter-iteration reuse) or Refetch (the ablation baseline).
func WithPolicy(p Policy) Option {
	return func(c *config) { c.search.Policy = p }
}

// WithoutTE skips the time-extension step; the MHLA+TE operating
// point then equals MHLA.
func WithoutTE() Option {
	return func(c *config) { c.disableTE = true }
}

// WithoutInPlace disables lifetime-aware (in-place) capacity
// estimation, the A1 ablation.
func WithoutInPlace() Option {
	return func(c *config) { c.search.InPlace = false }
}

// WithAbsoluteGain makes the greedy engine rank moves by absolute
// gain instead of gain per on-chip byte, the A2-style ablation of the
// MHLA tool's ranking.
func WithAbsoluteGain() Option {
	return func(c *config) { c.search.GainPerByte = false }
}

// WithMaxStates caps the states the exact engines explore before
// giving up on optimality (default 500000). The cap applies per
// subtree task of the parallel search; results whose total exceeds it
// are flagged incomplete. Negative values are rejected with a typed
// *OptionError.
func WithMaxStates(n int) Option {
	return func(c *config) { c.search.MaxStates = n }
}

// WithWorkers caps the goroutines the exact engines (BnB, Exhaustive)
// fan their independent subtree searches over. 0 (the default) means
// GOMAXPROCS, 1 forces a single-threaded search, and the result is
// byte-identical at every worker count. The greedy engine is
// inherently sequential and ignores the setting. Negative values are
// rejected with a typed *OptionError.
func WithWorkers(n int) Option {
	return func(c *config) { c.search.Workers = n }
}

// WithWorkspace reuses a precompiled workspace (see Compile) instead
// of validating and analyzing the program per call. The workspace
// must have been compiled for the same *Program value the entry point
// receives; a mismatch is rejected with a typed *OptionError. Use it
// when one program is evaluated against many platforms — an L1 sweep,
// a batch grid, a serving loop — so the program-side analysis runs
// once instead of per point. A nil workspace is rejected with a typed
// *OptionError.
func WithWorkspace(ws *Workspace) Option {
	return func(c *config) {
		if ws == nil {
			c.fail("Workspace", "nil workspace")
			return
		}
		c.workspace = ws
	}
}

// WithIncumbent warm-starts the branch-and-bound engine with a
// known-good assignment — typically a neighboring configuration's
// optimum (SweepL1 chains its points this way automatically). The
// incumbent must have been built over the same compiled workspace the
// call searches (pass WithWorkspace with the workspace it came from);
// a mismatch is rejected with a typed *OptionError. It may have been
// found under a different platform — it is re-validated and re-scored
// under the call's platform and silently ignored when it no longer
// maps, fits, or improves on the greedy seed. A complete warm-started
// search returns byte-identical results; only the explored state
// count shrinks. The greedy and exhaustive engines ignore the
// setting. A nil assignment is rejected with a typed *OptionError.
func WithIncumbent(a *Assignment) Option {
	return func(c *config) {
		if a == nil {
			c.fail("Incumbent", "nil assignment")
			return
		}
		c.search.Incumbent = a
	}
}

// WithSweepWorkers bounds the sweep points SweepL1 evaluates
// concurrently. 0 (the default) means GOMAXPROCS, 1 forces a
// sequential sweep; the sweep result is identical at every worker
// count. Other entry points ignore the setting (WithWorkers bounds
// the search engines instead). Negative values are rejected with a
// typed *OptionError.
func WithSweepWorkers(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.fail("SweepWorkers", fmt.Sprintf("negative worker count %d", n))
			return
		}
		c.sweepWorkers = n
	}
}

// WithProgress streams flow progress: one callback as each phase
// starts, plus the search engine's periodic snapshots. The callback
// must be fast. Phase entries and greedy snapshots arrive on the
// flow's goroutine; the parallel exact engines (BnB, Exhaustive)
// deliver their snapshots from worker goroutines, serialized, so the
// callback never runs concurrently with itself but must not assume
// the caller's goroutine.
func WithProgress(fn ProgressFunc) Option {
	return func(c *config) { c.progress = fn }
}

// TeeProgress fans flow progress snapshots out to several observers:
// the returned callback forwards each snapshot to every non-nil fn,
// in argument order and on the caller's goroutine, so the combined
// callback keeps the same delivery guarantees each fn would have had
// alone. nil fns are skipped; with zero (or only nil) fns the result
// is nil, so it composes with code that gates on a nil ProgressFunc.
// The serving layer uses this to chain its server-wide observer with
// a per-job progress publisher.
func TeeProgress(fns ...ProgressFunc) ProgressFunc {
	var live []ProgressFunc
	for _, fn := range fns {
		if fn != nil {
			live = append(live, fn)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(p Progress) {
		for _, fn := range live {
			fn(p)
		}
	}
}

// Compile builds the compile-once workspace of a program: validation,
// the data-reuse analysis and the program-side lifetime/dependence
// tables every flow step reads. The workspace is immutable and safe
// to share across goroutines; pass it back via WithWorkspace so
// repeated Run/SweepL1 calls on the same program skip the per-call
// analysis. The batch Explorer compiles one per distinct program
// automatically.
func Compile(p *Program) (*Workspace, error) { return workspace.Compile(p) }

// compile resolves the workspace an entry point runs over: the
// configured one (WithWorkspace), which must have been compiled for p
// (a nil p is allowed — the workspace carries its own program), or
// else p compiled afresh. It reports the first invalid option first,
// and returns ctx.Err() before compiling, so a cancelled call does no
// analysis work.
func (c *config) compile(ctx context.Context, p *Program) (*Workspace, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.workspace != nil {
		if p != nil && p != c.workspace.Program {
			return nil, &assign.OptionError{Field: "Workspace", Reason: "workspace was compiled for a different program"}
		}
		return c.workspace, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return workspace.Compile(p)
}

// Run executes the full two-step MHLA+TE flow on a program and
// evaluates the four operating points of the paper's figures. It
// returns ctx.Err() promptly when ctx is cancelled, even inside a
// long assignment search. With WithWorkspace the program-side
// analysis is reused instead of recompiled.
func Run(ctx context.Context, p *Program, opts ...Option) (*Result, error) {
	cfg := newConfig(opts)
	ws, err := cfg.compile(ctx, p)
	if err != nil {
		return nil, err
	}
	return core.RunWorkspace(ctx, ws, cfg.coreConfig())
}

// Search runs the assignment step alone on an analyzed program (step
// 1, no time extensions). A nil plat falls back to the platform
// options (WithPlatform/WithL1, default TwoLevel(DefaultL1));
// WithProgress streams the engine's snapshots.
func Search(ctx context.Context, an *Analysis, plat *Platform, opts ...Option) (*SearchResult, error) {
	cfg := newConfig(opts)
	if cfg.err != nil {
		return nil, cfg.err
	}
	if plat == nil {
		plat = cfg.platform
	}
	return assign.SearchContext(ctx, an, plat, cfg.assignOptions())
}

// ParseObjective parses an objective name: "energy", "time" or "edp".
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "energy":
		return Energy, nil
	case "time":
		return Time, nil
	case "edp":
		return EDP, nil
	}
	return 0, fmt.Errorf("mhla: unknown objective %q (want energy, time or edp)", s)
}

// ParseEngine parses an engine name against the engine registry
// (e.g. "greedy", "bnb", "exhaustive", "lns", "portfolio"; see
// Engines for the live list). The empty string is rejected — callers
// with an optional engine knob should skip WithEngine instead.
func ParseEngine(s string) (Engine, error) {
	if s != "" {
		if info, _, err := assign.LookupEngine(Engine(s)); err == nil {
			return info.Name, nil
		}
	}
	names := make([]string, 0, 8)
	for _, info := range Engines() {
		names = append(names, string(info.Name))
	}
	return "", &OptionError{
		Field:  "Engine",
		Reason: fmt.Sprintf("unknown engine %q (want one of %s)", s, strings.Join(names, ", ")),
	}
}

// Engines lists the registered search engines sorted by name, with
// their capability flags (exact/anytime/deterministic, whether they
// honor Workers and Seed).
func Engines() []EngineInfo { return assign.Engines() }

// ParsePolicy parses a transfer policy name: "slide" or "refetch".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "slide":
		return Slide, nil
	case "refetch":
		return Refetch, nil
	}
	return 0, fmt.Errorf("mhla: unknown policy %q (want slide or refetch)", s)
}

// assignOptions exposes the accumulated assignment options for the
// helpers (Search, Partition) that drive the assignment layer
// directly, wiring the flow-level progress callback into the engine
// the way core.BeginWorkspace does.
func (c *config) assignOptions() assign.Options {
	return core.WireSearchProgress(c.search, c.progress)
}
