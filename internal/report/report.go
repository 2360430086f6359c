// Package report renders the paper's figures from evaluated results:
// normalized per-application bar charts for Figure 2 (performance)
// and Figure 3 (energy), plus CSV emission for external plotting.
package report

import (
	"fmt"
	"strings"

	"mhla/internal/core"
)

// AppResult pairs an application name with its flow result.
type AppResult struct {
	Name   string
	Result *core.Result
}

// bar renders a horizontal bar of the given fraction (1.0 = full
// width).
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(float64(frac*float64(width)) + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// Figure2 renders the performance figure: per application, the
// execution time of MHLA, MHLA+TE and the ideal case normalized to
// the original (out-of-the-box) code.
func Figure2(results []AppResult) string {
	var sb strings.Builder
	sb.WriteString("Figure 2 — execution time normalized to the original code (lower is better)\n")
	sb.WriteString(fmt.Sprintf("%-8s %-9s %6s  %s\n", "app", "point", "%orig", ""))
	for _, ar := range results {
		g := ar.Result.Gains()
		rows := []struct {
			label string
			v     float64
		}{
			{"original", 1},
			{"mhla", g.MHLACycles},
			{"mhla+te", g.TECycles},
			{"ideal", g.IdealCycles},
		}
		for i, r := range rows {
			name := ""
			if i == 0 {
				name = ar.Name
			}
			sb.WriteString(fmt.Sprintf("%-8s %-9s %5.1f%%  |%s|\n", name, r.label, 100*r.v, bar(r.v, 40)))
		}
	}
	return sb.String()
}

// Figure3 renders the energy figure: per application, the memory
// energy of the MHLA assignment normalized to the original code.
// Time extensions do not change energy (the model counts memory
// accesses only), so a single MHLA bar represents both steps, as in
// the paper.
func Figure3(results []AppResult) string {
	var sb strings.Builder
	sb.WriteString("Figure 3 — memory energy normalized to the original code (lower is better)\n")
	sb.WriteString(fmt.Sprintf("%-8s %-9s %6s  %s\n", "app", "point", "%orig", ""))
	for _, ar := range results {
		g := ar.Result.Gains()
		sb.WriteString(fmt.Sprintf("%-8s %-9s %5.1f%%  |%s|\n", ar.Name, "original", 100.0, bar(1, 40)))
		sb.WriteString(fmt.Sprintf("%-8s %-9s %5.1f%%  |%s|\n", "", "mhla(+te)", 100*g.MHLAEnergy, bar(g.MHLAEnergy, 40)))
	}
	return sb.String()
}

// Summary renders the headline numbers the paper's abstract claims:
// the best performance and energy reductions and the best TE boost
// across the applications.
func Summary(results []AppResult) string {
	bestPerf, bestEnergy, bestBoost := 0.0, 0.0, 0.0
	perfApp, energyApp, boostApp := "", "", ""
	for _, ar := range results {
		g := ar.Result.Gains()
		if gain := 1 - g.TECycles; gain > bestPerf {
			bestPerf, perfApp = gain, ar.Name
		}
		if gain := 1 - g.MHLAEnergy; gain > bestEnergy {
			bestEnergy, energyApp = gain, ar.Name
		}
		if b := ar.Result.TEBoost(); b > bestBoost {
			bestBoost, boostApp = b, ar.Name
		}
	}
	return fmt.Sprintf(
		"best execution-time reduction: %.0f%% (%s)\nbest energy reduction: %.0f%% (%s)\nbest TE boost over MHLA alone: %.0f%% (%s)\n",
		100*bestPerf, perfApp, 100*bestEnergy, energyApp, 100*bestBoost, boostApp)
}

// CSV renders one row per application with the four operating points
// and energies, for external plotting of both figures.
func CSV(results []AppResult) string {
	out := "app,l1_bytes,orig_cycles,mhla_cycles,te_cycles,ideal_cycles,orig_pj,mhla_pj,mhla_pct,te_pct,ideal_pct,energy_pct,te_boost_pct\n"
	for _, ar := range results {
		r := ar.Result
		g := r.Gains()
		out += fmt.Sprintf("%s,%d,%d,%d,%d,%d,%.0f,%.0f,%.1f,%.1f,%.1f,%.1f,%.1f\n",
			ar.Name, r.Platform.OnChipCapacity(),
			r.Original.Cycles, r.MHLA.Cycles, r.TE.Cycles, r.Ideal.Cycles,
			r.Original.Energy, r.MHLA.Energy,
			100*g.MHLACycles, 100*g.TECycles, 100*g.IdealCycles, 100*g.MHLAEnergy,
			100*r.TEBoost())
	}
	return out
}
