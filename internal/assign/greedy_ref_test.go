package assign

// This file is the reference oracle for the greedy engine: the
// clone-per-move implementation greedy.go replaced. Every candidate
// move deep-clones the whole Assignment, checks it with a full Fits
// and scores it with a full Evaluate. It is slow but obviously
// faithful to the cost model, so the differential tests
// (TestDifferentialGreedyReference*) hold the incremental engine to it
// byte for byte: assignment, cost, state count and progress sequence.

import (
	"context"
	"sort"

	"mhla/internal/platform"
	"mhla/internal/workspace"
)

// move is one reference greedy step: either instantiating a copy
// candidate on a layer or re-homing an array.
type move struct {
	// key orders moves deterministically among equal gains.
	key string
	// bytes is the on-chip space the move consumes (for the
	// gain-per-byte criterion).
	bytes int64
	apply func(a *Assignment)
}

// referenceGreedySearch is the steepest-descent heuristic of the MHLA
// tool: start from the out-of-the-box placement (everything in
// background memory, no copies) and repeatedly apply the feasible move
// with the best gain until no move improves the objective. It returns
// nil if ctx is cancelled before the search converges.
func referenceGreedySearch(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) *Result {
	cur := NewInWorkspace(ws, plat, opts.Policy)
	cur.InPlace = opts.InPlace
	curCost := cur.Evaluate(EvalOptions{})
	curScore := opts.Objective.Score(curCost)
	states := 0

	for iter := 0; iter < opts.MaxGreedyIters; iter++ {
		var best *Assignment
		var bestCost Cost
		bestCrit := 0.0
		bestKey := ""
		for _, mv := range enumerateMoves(cur) {
			if states&63 == 0 && ctx.Err() != nil {
				return nil
			}
			next := cur.Clone()
			mv.apply(next)
			if !next.Fits() {
				continue
			}
			states++
			c := next.Evaluate(EvalOptions{})
			gain := curScore - opts.Objective.Score(c)
			if gain <= 1e-9 {
				continue
			}
			crit := gain
			if opts.GainPerByte && mv.bytes > 0 {
				crit = gain / float64(mv.bytes)
			}
			if best == nil || crit > bestCrit || (crit == bestCrit && mv.key < bestKey) {
				best, bestCost, bestCrit, bestKey = next, c, crit, mv.key
			}
		}
		if best == nil {
			break
		}
		cur, curCost = best, bestCost
		curScore = opts.Objective.Score(curCost)
		if opts.Progress != nil {
			opts.Progress(Progress{Engine: Greedy, States: states, Iter: iter + 1, BestScore: curScore})
		}
	}
	return &Result{Assignment: cur, Cost: curCost, States: states, Complete: true, Engine: Greedy}
}

// enumerateMoves lists every structurally valid single move from the
// current assignment in deterministic order. Capacity feasibility is
// checked by the caller (it depends on the whole lifetime profile).
func enumerateMoves(a *Assignment) []move {
	var moves []move
	onChip := a.Platform.OnChipLayers()

	// Copy-candidate instantiations.
	for _, ch := range a.Analysis.Chains {
		ch := ch
		home := a.ArrayHome[ch.Array.Name]
		ca := a.Chains[ch.ID]
		for level := 0; level <= ch.Depth(); level++ {
			// Neighbour layers in the chain for monotonicity.
			parentLayer := home
			childLayer := -1
			selected := false
			if ca != nil {
				for i, lv := range ca.Levels {
					if lv == level {
						selected = true
						break
					}
					if lv < level {
						parentLayer = ca.Layers[i]
					}
					if lv > level {
						childLayer = ca.Layers[i]
						break
					}
				}
			}
			if selected {
				continue
			}
			cand := ch.Candidate(level)
			for _, layer := range onChip {
				if layer >= parentLayer || layer <= childLayer {
					continue
				}
				if cand.Bytes > a.Platform.Layers[layer].Capacity {
					continue
				}
				level, layer := level, layer
				chID := ch.ID
				moves = append(moves, move{
					key:   "cc/" + ch.ID + keySuffix(level, layer),
					bytes: cand.Bytes,
					apply: func(a *Assignment) { a.Select(chID, level, layer) },
				})
			}
		}
	}

	// Array re-homing.
	arrays := append([]string(nil), arrayNames(a)...)
	for _, name := range arrays {
		arr := a.Analysis.Program.Array(name)
		cur := a.ArrayHome[name]
		for _, layer := range onChip {
			if layer == cur {
				continue
			}
			if arr.Bytes() > a.Platform.Layers[layer].Capacity {
				continue
			}
			// The first selected copy of each chain must stay closer
			// to the CPU than the home.
			if !homeCompatible(a, name, layer) {
				continue
			}
			name, layer := name, layer
			moves = append(moves, move{
				key:   "home/" + name + keySuffix(0, layer),
				bytes: arr.Bytes(),
				apply: func(a *Assignment) { a.SetHome(name, layer) },
			})
		}
	}
	return moves
}

func arrayNames(a *Assignment) []string {
	names := make([]string, 0, len(a.Analysis.Program.Arrays))
	for _, arr := range a.Analysis.Program.Arrays {
		names = append(names, arr.Name)
	}
	sort.Strings(names)
	return names
}

// homeCompatible reports whether moving the array home to the given
// layer keeps every chain selection monotone.
func homeCompatible(a *Assignment, array string, home int) bool {
	for _, ch := range a.Analysis.Chains {
		if ch.Array.Name != array {
			continue
		}
		if ca := a.Chains[ch.ID]; ca != nil && len(ca.Layers) > 0 && ca.Layers[0] >= home {
			return false
		}
	}
	return true
}
