package assign_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/assign"
	"mhla/internal/energy"
	"mhla/internal/platform"
	"mhla/internal/reuse"
	"mhla/internal/workspace"
)

// greedyRun is one greedy search's observable outcome: the result and
// every progress snapshot it delivered.
type greedyRun struct {
	res      *assign.Result
	progress []assign.Progress
}

// checkGreedyAgainstReference runs the greedy engine and the
// clone-per-move reference oracle on the same workspace and options
// and fails unless assignment, cost, state count and the recorded
// progress sequence are identical.
func checkGreedyAgainstReference(t *testing.T, ws *workspace.Workspace, plat *platform.Platform, opts assign.Options) {
	t.Helper()
	opts.Engine = assign.Greedy
	opts.MaxGreedyIters = 10_000
	run := func(search func(assign.Options) *assign.Result) greedyRun {
		var r greedyRun
		o := opts
		o.Progress = func(p assign.Progress) { r.progress = append(r.progress, p) }
		r.res = search(o)
		return r
	}
	got := run(func(o assign.Options) *assign.Result {
		res, err := assign.SearchWorkspace(context.Background(), ws, plat, o)
		if err != nil {
			t.Fatalf("greedy: %v", err)
		}
		return res
	})
	want := run(func(o assign.Options) *assign.Result {
		return assign.ReferenceGreedySearch(context.Background(), ws, plat, o)
	})
	name := fmt.Sprintf("objective=%v gainPerByte=%v inPlace=%v policy=%v",
		opts.Objective, opts.GainPerByte, opts.InPlace, opts.Policy)
	if !assignmentsEqual(got.res.Assignment, want.res.Assignment) {
		t.Errorf("%s: assignment differs from the reference:\n%svs\n%s", name, got.res.Assignment, want.res.Assignment)
	}
	if !reflect.DeepEqual(got.res.Cost, want.res.Cost) {
		t.Errorf("%s: cost %+v, reference %+v", name, got.res.Cost, want.res.Cost)
	}
	if got.res.States != want.res.States || got.res.Complete != want.res.Complete || got.res.Engine != want.res.Engine {
		t.Errorf("%s: states/complete/engine %d/%v/%v, reference %d/%v/%v", name,
			got.res.States, got.res.Complete, got.res.Engine, want.res.States, want.res.Complete, want.res.Engine)
	}
	if !reflect.DeepEqual(got.progress, want.progress) {
		t.Errorf("%s: progress sequence differs from the reference:\n%+v\nvs\n%+v", name, got.progress, want.progress)
	}
}

// forEachGreedyOptions calls f with the base options under every
// objective, with GainPerByte and InPlace each on and off.
func forEachGreedyOptions(base assign.Options, f func(assign.Options)) {
	for _, obj := range []assign.Objective{assign.MinEnergy, assign.MinTime, assign.MinEDP} {
		for _, gpb := range []bool{false, true} {
			for _, inPlace := range []bool{false, true} {
				o := base
				o.Objective, o.GainPerByte, o.InPlace = obj, gpb, inPlace
				f(o)
			}
		}
	}
}

// TestDifferentialGreedyReferenceProgen holds the incremental greedy
// engine byte-identical to the clone-per-move reference on every
// differential progen scenario (each under its own platform and
// policy) across all objectives and ranking/in-place settings.
func TestDifferentialGreedyReferenceProgen(t *testing.T) {
	for seed := int64(0); seed < diffSeeds(); seed++ {
		sc := diffConfig.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			an, err := reuse.Analyze(sc.Program)
			if err != nil {
				t.Fatal(err)
			}
			ws := workspace.FromAnalysis(an)
			forEachGreedyOptions(sc.Options, func(o assign.Options) {
				checkGreedyAgainstReference(t, ws, sc.Platform, o)
			})
		})
	}
}

// TestDifferentialGreedyReferenceApps does the same for every catalog
// application at paper scale on a two-level and a three-level
// platform under both transfer policies.
func TestDifferentialGreedyReferenceApps(t *testing.T) {
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			an, err := reuse.Analyze(app.Build(apps.Paper))
			if err != nil {
				t.Fatal(err)
			}
			ws := workspace.FromAnalysis(an)
			for _, plat := range []*platform.Platform{
				energy.TwoLevel(app.L1),
				energy.ThreeLevel(app.L1/2, app.L1*4),
			} {
				for _, policy := range []reuse.Policy{reuse.Slide, reuse.Refetch} {
					forEachGreedyOptions(assign.Options{Policy: policy}, func(o assign.Options) {
						checkGreedyAgainstReference(t, ws, plat, o)
					})
				}
			}
		})
	}
}

// TestGreedyCancelledBetweenIterations: a context cancelled from the
// progress callback after the first iteration must abort the search
// with context.Canceled before the next one, on every application —
// not only where the cancellation happens to land on a polled move.
func TestGreedyCancelledBetweenIterations(t *testing.T) {
	for _, app := range apps.All() {
		an, err := reuse.Analyze(app.Build(apps.Paper))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		fired := false
		opts := assign.DefaultOptions()
		opts.Progress = func(p assign.Progress) {
			if p.Iter == 1 {
				fired = true
				cancel()
			}
		}
		res, err := assign.SearchContext(ctx, an, energy.TwoLevel(app.L1), opts)
		cancel()
		if !fired {
			t.Errorf("%s: greedy never completed an iteration", app.Name)
		}
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("%s: cancelled search returned result=%v err=%v, want no result and context.Canceled",
				app.Name, res != nil, err)
		}
	}
}

// TestGreedySearchAllocs gates the greedy engine's allocations per
// search at paper scale. The move loop itself must not allocate: what
// remains is per-search setup (state, tables, move keys) and the one
// materialized Assignment with its final Evaluate.
func TestGreedySearchAllocs(t *testing.T) {
	for _, tc := range []struct {
		app    string
		budget float64
	}{
		{"qsdpcm", 1000},
		{"me", 200},
	} {
		app, err := apps.ByName(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		an, err := reuse.Analyze(app.Build(apps.Paper))
		if err != nil {
			t.Fatal(err)
		}
		ws := workspace.FromAnalysis(an)
		plat := energy.TwoLevel(app.L1)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := assign.SearchWorkspace(context.Background(), ws, plat, assign.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per greedy search", tc.app, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocs per greedy search, budget %.0f", tc.app, allocs, tc.budget)
		}
	}
}
