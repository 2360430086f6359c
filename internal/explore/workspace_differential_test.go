package explore_test

// The workspace sweep differential suite: for seeded progen programs
// it asserts that the compile-once, concurrently-evaluated sweep
// returns byte-identical core.Results to fresh per-point flow runs —
// at workers 1, 2, 4 and 8. CI runs this under -race, so the shared
// read-only workspace is exercised for data races on every scenario.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mhla/internal/assign"
	"mhla/internal/core"
	"mhla/internal/energy"
	"mhla/internal/explore"
	"mhla/internal/progen"
	"mhla/internal/workspace"
)

// sweepSizes keeps each flow run cheap while crossing the capacity
// regimes (too small for copies, partial, everything fits).
var sweepSizes = []int64{512, 2048, 8192}

func sweepSeeds() int64 {
	if testing.Short() {
		return 8
	}
	return 24
}

// scenarioConfig matches the assign differential harness bounds so
// the exact engines stay cheap under -race.
var scenarioConfig = progen.Config{MaxSpace: 4000}

// sweepOptions derives the per-seed search options: the generated
// operating point, with the exact branch-and-bound engine on odd
// seeds so both engine families run against the shared workspace.
func sweepOptions(sc *progen.Scenario) assign.Options {
	opts := sc.Options
	if sc.Seed%2 == 1 {
		opts.Engine = assign.BranchBound
		opts.Workers = 2
	}
	return opts
}

// freshPoint runs the full flow from scratch at one size: the program
// is compiled into a workspace of its own (validate + analyze + tables
// per call), shared with no other point.
func freshPoint(t *testing.T, sc *progen.Scenario, l1 int64, opts assign.Options) *core.Result {
	t.Helper()
	ws, err := workspace.Compile(sc.Program)
	if err != nil {
		t.Fatalf("seed %d: fresh compile at %dB: %v", sc.Seed, l1, err)
	}
	res, err := core.RunWorkspace(context.Background(), ws,
		core.Config{Platform: energy.TwoLevel(l1), Search: opts})
	if err != nil {
		t.Fatalf("seed %d: fresh run at %dB: %v", sc.Seed, l1, err)
	}
	return res
}

// assignmentsEqual compares the decisions and extras of two
// assignments; the analysis pointers legitimately differ between a
// fresh run and a shared-workspace run.
func assignmentsEqual(a, b *assign.Assignment) bool {
	if !reflect.DeepEqual(a.ArrayHome, b.ArrayHome) ||
		!reflect.DeepEqual(a.Extras, b.Extras) ||
		len(a.Chains) != len(b.Chains) {
		return false
	}
	for id, ca := range a.Chains {
		cb := b.Chains[id]
		if cb == nil || !reflect.DeepEqual(ca.Levels, cb.Levels) || !reflect.DeepEqual(ca.Layers, cb.Layers) {
			return false
		}
	}
	return true
}

// resultsEqual compares everything a flow result reports: the four
// operating points, the search effort, the assignment decisions and
// the time-extension plan. statesMayShrink relaxes the search-effort
// comparison for warm-started branch-and-bound sweeps, where the
// chained incumbent legitimately prunes harder than a fresh run (b
// may explore fewer states than a, never more).
func resultsEqual(a, b *core.Result, statesMayShrink bool) bool {
	if statesMayShrink {
		if b.SearchStates > a.SearchStates {
			return false
		}
	} else if a.SearchStates != b.SearchStates {
		return false
	}
	if !reflect.DeepEqual(a.Original, b.Original) ||
		!reflect.DeepEqual(a.MHLA, b.MHLA) ||
		!reflect.DeepEqual(a.TE, b.TE) ||
		!reflect.DeepEqual(a.Ideal, b.Ideal) {
		return false
	}
	if !assignmentsEqual(a.Assignment, b.Assignment) {
		return false
	}
	if (a.Plan == nil) != (b.Plan == nil) {
		return false
	}
	if a.Plan != nil {
		if a.Plan.Applicable != b.Plan.Applicable ||
			len(a.Plan.Streams) != len(b.Plan.Streams) ||
			!reflect.DeepEqual(a.Plan.Hidden(), b.Plan.Hidden()) ||
			!assignmentsEqual(a.Plan.Assignment, b.Plan.Assignment) {
			return false
		}
		for i := range a.Plan.Streams {
			sa, sb := a.Plan.Streams[i], b.Plan.Streams[i]
			if sa.Key != sb.Key || sa.HiddenCycles != sb.HiddenCycles ||
				sa.FullyExtended != sb.FullyExtended || sa.SizeLimited != sb.SizeLimited ||
				sa.BlockHoist != sb.BlockHoist || sa.Priority != sb.Priority ||
				!reflect.DeepEqual(sa.ExtendedLoops, sb.ExtendedLoops) {
				return false
			}
		}
	}
	return true
}

// TestSweepWorkspaceMatchesFreshRuns: the shared-workspace concurrent
// sweep must return, at every worker count, exactly the results of
// fresh per-point flow runs.
func TestSweepWorkspaceMatchesFreshRuns(t *testing.T) {
	for seed := int64(0); seed < sweepSeeds(); seed++ {
		sc := scenarioConfig.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			fresh := make([]*core.Result, len(sweepSizes))
			for i, l1 := range sweepSizes {
				fresh[i] = freshPoint(t, sc, l1, sweepOptions(sc))
			}
			ws, err := workspace.Compile(sc.Program)
			if err != nil {
				t.Fatalf("seed %d: compile: %v", sc.Seed, err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				sw, err := explore.SweepWorkspace(context.Background(), ws, sweepSizes, explore.Options{
					Config:  core.Config{Search: sweepOptions(sc)},
					Workers: workers,
				})
				if err != nil {
					t.Fatalf("seed %d: shared sweep (workers=%d): %v", sc.Seed, workers, err)
				}
				if len(sw.Points) != len(sweepSizes) {
					t.Fatalf("seed %d: %d points, want %d", sc.Seed, len(sw.Points), len(sweepSizes))
				}
				for i, pt := range sw.Points {
					if pt.L1 != sweepSizes[i] {
						t.Fatalf("seed %d: point %d is size %d, want %d (order broken)",
							sc.Seed, i, pt.L1, sweepSizes[i])
					}
					if !resultsEqual(fresh[i], pt.Result, sweepOptions(sc).Engine == assign.BranchBound) {
						t.Errorf("seed %d size %d workers %d: shared-workspace result differs from fresh run\nfresh: MHLA=%+v TE=%+v states=%d\nshared: MHLA=%+v TE=%+v states=%d",
							sc.Seed, pt.L1, workers,
							fresh[i].MHLA, fresh[i].TE, fresh[i].SearchStates,
							pt.Result.MHLA, pt.Result.TE, pt.Result.SearchStates)
					}
				}
			}
		})
	}
}

// TestSweepWorkspaceSerializesProgress: both the flow-level and the
// search-level progress callbacks may mutate unsynchronized caller
// state; the concurrent sweep must serialize each so it never runs
// concurrently with itself (exercised under -race in CI).
func TestSweepWorkspaceSerializesProgress(t *testing.T) {
	sc := scenarioConfig.Generate(2)
	ws, err := workspace.Compile(sc.Program)
	if err != nil {
		t.Fatal(err)
	}
	var phases []core.Phase
	snaps := 0
	opts := sweepOptions(sc)
	opts.Progress = func(assign.Progress) { snaps++ }
	_, err = explore.SweepWorkspace(context.Background(), ws, sweepSizes, explore.Options{
		Config: core.Config{
			Search:   opts,
			Progress: func(pr core.Progress) { phases = append(phases, pr.Phase) },
		},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every point enters the four phases; search snapshots are
	// engine-paced and may be zero on tiny scenarios.
	if len(phases) < 4*len(sweepSizes) {
		t.Errorf("saw %d phase entries, want at least %d", len(phases), 4*len(sweepSizes))
	}
}

// TestSweepWorkspaceCancellation: cancelling the context aborts the
// concurrent sweep promptly with ctx.Err().
func TestSweepWorkspaceCancellation(t *testing.T) {
	sc := scenarioConfig.Generate(0)
	ws, err := workspace.Compile(sc.Program)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := explore.SweepWorkspace(ctx, ws, sweepSizes, explore.Options{Workers: 4}); err != context.Canceled {
		t.Errorf("cancelled sweep returned %v, want context.Canceled", err)
	}
}

// TestSweepWorkspaceNil: a nil workspace is rejected, not
// dereferenced.
func TestSweepWorkspaceNil(t *testing.T) {
	if _, err := explore.SweepWorkspace(context.Background(), nil, sweepSizes, explore.Options{}); err == nil {
		t.Error("nil workspace accepted")
	}
}
