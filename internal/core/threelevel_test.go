package core

import (
	"testing"

	"mhla/internal/apps"
	"mhla/internal/energy"
	"mhla/internal/sim"
)

// TestThreeLevelHierarchy runs every application on a three-layer
// platform (L1 + L2 scratchpads + SDRAM): the deeper hierarchy must
// validate, keep the operating-point ordering, and never be worse
// than useless.
func TestThreeLevelHierarchy(t *testing.T) {
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			plat := energy.ThreeLevel(app.L1/2, app.L1*4)
			res, err := run(app.Build(apps.Test), Config{Platform: plat})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := res.Assignment.Validate(); err != nil {
				t.Fatalf("assignment invalid: %v", err)
			}
			if !res.Assignment.Fits() {
				t.Error("assignment does not fit")
			}
			o, m, te, id := res.Original.Cycles, res.MHLA.Cycles, res.TE.Cycles, res.Ideal.Cycles
			if !(id <= te && te <= m && m <= o) {
				t.Errorf("ordering violated: %d %d %d %d", id, te, m, o)
			}
			if res.MHLA.Energy > res.Original.Energy {
				t.Error("three-level MHLA worsened energy")
			}
			// The trace simulator handles multi-level copies too.
			tr, err := sim.Trace(res.Assignment, sim.Options{})
			if err != nil {
				t.Fatalf("Trace: %v", err)
			}
			for i, n := range res.MHLA.PerLayerAccesses {
				if tr.LayerAccesses[i] != n {
					t.Errorf("layer %d accesses: trace %d, analytic %d", i, tr.LayerAccesses[i], n)
				}
			}
		})
	}
}

// TestThreeLevelUsesMiddleLayer checks that with a small L1 and a big
// L2 the search actually exploits the middle layer for at least one
// application (otherwise the three-level support would be dead code
// in practice).
func TestThreeLevelUsesMiddleLayer(t *testing.T) {
	used := false
	for _, app := range apps.All() {
		plat := energy.ThreeLevel(256, 32*1024)
		res, err := run(app.Build(apps.Test), Config{Platform: plat})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		for _, sel := range res.Assignment.Selections() {
			if sel.Layer == 1 {
				used = true
			}
		}
		for _, home := range res.Assignment.ArrayHome {
			if home == 1 {
				used = true
			}
		}
	}
	if !used {
		t.Error("no application ever used the L2 layer")
	}
}
