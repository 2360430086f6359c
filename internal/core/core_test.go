package core

import (
	"context"
	"strings"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/assign"
	"mhla/internal/energy"
	"mhla/internal/model"
	"mhla/internal/workspace"
)

func TestRunOrderingInvariantsAllApps(t *testing.T) {
	// For every application at test scale: the four operating points
	// must be ordered ideal <= te <= mhla <= original in cycles, TE
	// must not change energy, and the analytical counts must agree
	// with the element-level trace simulator.
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			p := app.Build(apps.Test)
			res, err := run(p, Config{Platform: energy.TwoLevel(app.L1)})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := res.Assignment.Validate(); err != nil {
				t.Fatalf("assignment invalid: %v", err)
			}
			if !res.Assignment.Fits() {
				t.Error("assignment does not fit")
			}
			if !res.Plan.Assignment.Fits() {
				t.Error("TE assignment does not fit")
			}
			o, m, te, id := res.Original.Cycles, res.MHLA.Cycles, res.TE.Cycles, res.Ideal.Cycles
			if !(id <= te && te <= m && m <= o) {
				t.Errorf("ordering violated: ideal=%d te=%d mhla=%d orig=%d", id, te, m, o)
			}
			if m >= o {
				t.Errorf("MHLA did not improve: %d >= %d", m, o)
			}
			if res.TE.Energy != res.MHLA.Energy {
				t.Errorf("TE changed energy: %v -> %v", res.MHLA.Energy, res.TE.Energy)
			}
			if res.MHLA.Energy > res.Original.Energy {
				t.Errorf("MHLA energy above original: %v > %v", res.MHLA.Energy, res.Original.Energy)
			}
			if err := res.Verify(0); err != nil {
				t.Errorf("trace verification failed: %v", err)
			}
		})
	}
}

func TestRunPaperScaleME(t *testing.T) {
	app, _ := apps.ByName("me")
	res, err := run(app.Build(apps.Paper), Config{Platform: energy.TwoLevel(app.L1)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	g := res.Gains()
	if g.MHLACycles <= 0 || g.MHLACycles >= 1 {
		t.Errorf("MHLA cycles ratio = %v, want in (0,1)", g.MHLACycles)
	}
	if g.MHLAEnergy <= 0 || g.MHLAEnergy >= 1 {
		t.Errorf("MHLA energy ratio = %v, want in (0,1)", g.MHLAEnergy)
	}
	if g.TECycles > g.MHLACycles {
		t.Errorf("TE ratio %v above MHLA ratio %v", g.TECycles, g.MHLACycles)
	}
	if boost := res.TEBoost(); boost < 0 || boost > 1 {
		t.Errorf("TEBoost = %v", boost)
	}
	if res.SearchStates == 0 {
		t.Error("search evaluated no states")
	}
}

func TestRunWithoutDMA(t *testing.T) {
	app, _ := apps.ByName("me")
	res, err := run(app.Build(apps.Test), Config{Platform: energy.TwoLevelNoDMA(app.L1)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Plan.Applicable {
		t.Error("TE applicable without DMA")
	}
	if res.TE.Cycles != res.MHLA.Cycles {
		t.Errorf("TE point differs from MHLA without DMA: %d vs %d", res.TE.Cycles, res.MHLA.Cycles)
	}
}

func TestRunDisableTE(t *testing.T) {
	app, _ := apps.ByName("me")
	res, err := run(app.Build(apps.Test), Config{Platform: energy.TwoLevel(app.L1), DisableTE: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Plan.Applicable {
		t.Error("plan applicable despite DisableTE")
	}
	if res.TE.Cycles != res.MHLA.Cycles {
		t.Error("TE point differs from MHLA with DisableTE")
	}
}

func TestRunErrors(t *testing.T) {
	app, _ := apps.ByName("me")
	p := app.Build(apps.Test)
	if _, err := run(p, Config{}); err == nil || !strings.Contains(err.Error(), "no platform") {
		t.Errorf("missing platform: err = %v", err)
	}
	bad := model.NewProgram("bad")
	if _, err := run(bad, Config{Platform: energy.TwoLevel(1024)}); err == nil {
		t.Error("Run accepted an invalid program")
	}
}

func TestRunCustomSearchOptions(t *testing.T) {
	app, _ := apps.ByName("durbin")
	p := app.Build(apps.Test)
	opts := assign.DefaultOptions()
	opts.Objective = assign.MinTime
	res, err := run(p, Config{Platform: energy.TwoLevel(app.L1), Search: opts})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.MHLA.Cycles > res.Original.Cycles {
		t.Error("time-optimized search regressed cycles")
	}
}

func TestSummaryRendering(t *testing.T) {
	app, _ := apps.ByName("sobel")
	res, err := run(app.Build(apps.Test), Config{Platform: energy.TwoLevel(app.L1)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := res.Summary()
	for _, want := range []string{"original", "mhla", "mhla+te", "ideal", "cycles", "pJ"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
}

func TestGainsNormalization(t *testing.T) {
	r := &Result{
		Original: assign.Cost{Cycles: 1000, Energy: 2000},
		MHLA:     assign.Cost{Cycles: 500, Energy: 600},
		TE:       assign.Cost{Cycles: 400, Energy: 600},
		Ideal:    assign.Cost{Cycles: 350, Energy: 600},
	}
	g := r.Gains()
	if g.MHLACycles != 0.5 || g.TECycles != 0.4 || g.IdealCycles != 0.35 || g.MHLAEnergy != 0.3 {
		t.Errorf("Gains = %+v", g)
	}
	if boost := r.TEBoost(); boost < 0.2-1e-12 || boost > 0.2+1e-12 {
		t.Errorf("TEBoost = %v, want 0.2", boost)
	}
}

// run compiles p and runs the full flow over its workspace.
func run(p *model.Program, cfg Config) (*Result, error) {
	ws, err := workspace.Compile(p)
	if err != nil {
		return nil, err
	}
	return RunWorkspace(context.Background(), ws, cfg)
}
