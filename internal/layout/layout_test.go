package layout

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mhla/internal/apps"
	"mhla/internal/core"
	"mhla/internal/energy"
	"mhla/internal/lifetime"
	"mhla/internal/model"
	"mhla/internal/workspace"
)

func TestMapAllAppsValidAndFits(t *testing.T) {
	// For every app's figure assignment (with TE extras applied), the
	// concrete placement must validate; record where first-fit needs
	// more than the peak bound.
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			res, err := runFlow(app.Build(apps.Test), core.Config{Platform: energy.TwoLevel(app.L1)})
			if err != nil {
				t.Fatal(err)
			}
			maps, err := Map(res.Plan.Assignment)
			if err != nil {
				t.Fatal(err)
			}
			if len(maps) != 1 {
				t.Fatalf("maps = %d, want 1 bounded layer", len(maps))
			}
			m := maps[0]
			if err := m.Validate(); err != nil {
				t.Errorf("invalid placement: %v", err)
			}
			if m.Height < m.Peak {
				t.Errorf("height %d below the theoretical bound %d", m.Height, m.Peak)
			}
			if !m.Fits() {
				// First-fit may exceed the estimator's bound; report
				// loudly — this is the fragmentation the paper's
				// in-place estimation ignores.
				t.Logf("NOTE: placement needs %dB on a %dB layer (fragmentation %dB)",
					m.Height, m.Capacity, m.Fragmentation())
			}
			t.Logf("%s: used=%d peak=%d frag=%d objects=%d",
				app.Name, m.Height, m.Peak, m.Fragmentation(), len(m.Placements))
		})
	}
}

func TestPlacementSharesAddressesAcrossLifetimes(t *testing.T) {
	m := &LayerMap{Layer: 0, Name: "L1", Capacity: 100}
	objs := []lifetime.Object{
		{ID: "a", Bytes: 80, Start: 0, End: 0},
		{ID: "b", Bytes: 80, Start: 1, End: 1},
	}
	place(m, objs, true)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Height != 80 {
		t.Errorf("height = %d, want 80 (shared addresses)", m.Height)
	}
	// Without in-place the same objects must stack.
	m2 := &LayerMap{Layer: 0, Name: "L1", Capacity: 200}
	place(m2, objs, false)
	if m2.Height != 160 {
		t.Errorf("static height = %d, want 160", m2.Height)
	}
}

func TestPlacementOverlapDetection(t *testing.T) {
	m := &LayerMap{Layer: 0, Name: "L1", Capacity: 100,
		Placements: []Placement{
			{Object: lifetime.Object{ID: "a", Bytes: 50, Start: 0, End: 1}, Offset: 0},
			{Object: lifetime.Object{ID: "b", Bytes: 50, Start: 1, End: 2}, Offset: 25},
		},
	}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("Validate = %v, want overlap error", err)
	}
}

func TestQuickPlacementAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nb := 1 + r.Intn(5)
		n := r.Intn(12)
		objs := make([]lifetime.Object, n)
		var total int64
		for i := range objs {
			start := r.Intn(nb)
			objs[i] = lifetime.Object{
				ID:    string(rune('a' + i)),
				Bytes: int64(1 + r.Intn(200)),
				Start: start,
				End:   start + r.Intn(nb-start),
			}
			total += objs[i].Bytes
		}
		m := &LayerMap{Layer: 0, Name: "L1", Capacity: total + 1}
		place(m, objs, true)
		if err := m.Validate(); err != nil {
			t.Log(err)
			return false
		}
		// Height is bounded by the static sum and below by the peak.
		est := &lifetime.Estimator{NumBlocks: nb, InPlace: true}
		peak := est.Peak(objs)
		return m.Height >= peak && m.Height <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickStaticPlacementIsSum(t *testing.T) {
	// Without in-place, first-fit-decreasing stacks everything: the
	// height equals the sum of sizes.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(10)
		objs := make([]lifetime.Object, n)
		var total int64
		for i := range objs {
			objs[i] = lifetime.Object{ID: string(rune('a' + i)), Bytes: int64(1 + r.Intn(100))}
			total += objs[i].Bytes
		}
		m := &LayerMap{Capacity: total + 1}
		place(m, objs, false)
		return m.Height == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapString(t *testing.T) {
	app, _ := apps.ByName("me")
	res, err := runFlow(app.Build(apps.Test), core.Config{Platform: energy.TwoLevel(app.L1)})
	if err != nil {
		t.Fatal(err)
	}
	maps, err := Map(res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	s := maps[0].String()
	for _, want := range []string{"memory map of L1", "capacity", "blocks"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestMapRejectsInvalidAssignment(t *testing.T) {
	app, _ := apps.ByName("me")
	res, err := runFlow(app.Build(apps.Test), core.Config{Platform: energy.TwoLevel(app.L1)})
	if err != nil {
		t.Fatal(err)
	}
	bad := res.Assignment.Clone()
	delete(bad.ArrayHome, "cur")
	if _, err := Map(bad); err == nil {
		t.Fatal("Map accepted an invalid assignment")
	}
}

// runFlow compiles p and runs the full flow over its workspace.
func runFlow(p *model.Program, cfg core.Config) (*core.Result, error) {
	ws, err := workspace.Compile(p)
	if err != nil {
		return nil, err
	}
	return core.RunWorkspace(context.Background(), ws, cfg)
}
