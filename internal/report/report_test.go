package report

import (
	"context"
	"strings"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/assign"
	"mhla/internal/core"
	"mhla/internal/energy"
	"mhla/internal/model"
	"mhla/internal/workspace"
)

func testResults(t *testing.T) []AppResult {
	t.Helper()
	var out []AppResult
	for _, name := range []string{"durbin", "voice"} {
		app, _ := apps.ByName(name)
		res, err := runFlow(app.Build(apps.Test), core.Config{Platform: energy.TwoLevel(app.L1)})
		if err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
		out = append(out, AppResult{Name: name, Result: res})
	}
	return out
}

func TestFigure2Rendering(t *testing.T) {
	s := Figure2(testResults(t))
	for _, want := range []string{"Figure 2", "durbin", "voice", "original", "mhla+te", "ideal", "|#"} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure2 missing %q:\n%s", want, s)
		}
	}
	// Original is always the full bar.
	if !strings.Contains(s, "100.0%") {
		t.Error("Figure2 missing normalized original")
	}
}

func TestFigure3Rendering(t *testing.T) {
	s := Figure3(testResults(t))
	for _, want := range []string{"Figure 3", "durbin", "mhla(+te)", "energy"} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure3 missing %q:\n%s", want, s)
		}
	}
}

func TestSummary(t *testing.T) {
	s := Summary(testResults(t))
	for _, want := range []string{"execution-time reduction", "energy reduction", "TE boost"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
}

func TestCSV(t *testing.T) {
	s := CSV(testResults(t))
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "app,l1_bytes") {
		t.Errorf("bad header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "durbin,") {
		t.Errorf("bad row %q", lines[1])
	}
}

func TestBarClamping(t *testing.T) {
	if got := bar(-1, 10); got != strings.Repeat(".", 10) {
		t.Errorf("bar(-1) = %q", got)
	}
	if got := bar(2, 10); got != strings.Repeat("#", 10) {
		t.Errorf("bar(2) = %q", got)
	}
	if got := bar(0.5, 10); got != "#####....." {
		t.Errorf("bar(0.5) = %q", got)
	}
}

func TestFigure2UsesCustomOptions(t *testing.T) {
	// The rendering is agnostic to how results were produced.
	app, _ := apps.ByName("durbin")
	opts := assign.DefaultOptions()
	opts.Objective = assign.MinTime
	res, err := runFlow(app.Build(apps.Test), core.Config{Platform: energy.TwoLevel(app.L1), Search: opts})
	if err != nil {
		t.Fatal(err)
	}
	s := Figure2([]AppResult{{Name: "durbin", Result: res}})
	if !strings.Contains(s, "durbin") {
		t.Error("missing app row")
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
