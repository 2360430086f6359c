package assign

import (
	"context"
	"sort"

	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/workspace"
)

// This file is the greedy engine. It walks the MHLA tool's move set
// over one mutable greedyState: a candidate move is applied (a copy
// inserted into its chain's selection and placed in its layer's
// occupancy tracker, or an array re-homed between trackers), checked
// with the O(layers) peak test, scored and undone. No Assignment is
// cloned and no lifetime profile rebuilt per move; the Assignment is
// materialized and priced by Evaluate once, at the end.
//
// Moves are scored by greedy.fold, which adds up exactly the terms of
// Evaluate(EvalOptions{}), in Evaluate's order, so every gain — and
// with it every bit-exact comparison and tie-break below — is the one
// a full Evaluate per move would give. The exact engines' contribution
// tables cannot stand in for it: they sum each chain's access and
// transfer energy first, which rounds differently.

// greedy is one greedy search: its mutable position — the shared
// occupancy kernel plus each chain's selected copy levels (ascending)
// and their layers — and the tables the move loop and the scoring fold
// read. The per-chain selection slices are carved from flat buffers
// with capacity for every level, so inserts never allocate.
type greedy struct {
	occupancy
	levels, layers [][]int

	opts   Options
	bg     int
	onChip []int

	// base[ci] is chain ci's offset into the per-(chain, level) tables
	// below: chain ci's level lv is entry base[ci]+lv.
	base []int
	// link[parent*len(plat.Layers)+layer] numbers the np (parent,
	// layer) pairs a copy can link — layer on-chip and closer to the
	// CPU than parent — and is -1 elsewhere.
	link []int
	np   int
	// The data-moving update classes of entry e are the class indices
	// spans[e] up to spans[e+1], in class order. A copy of entry e on
	// link p costs xferCycles[e*np+p] cycles (summed over its classes)
	// and the per-class energies xferEnergy[c*np+p], which the fold
	// adds one by one as Evaluate does.
	spans      []int
	xferCycles []int64
	xferEnergy []float64
	// accCycles and accEnergy[ci*len(plat.Layers)+layer] are chain
	// ci's CPU access cycles and energy when its accesses hit layer.
	accCycles []int64
	accEnergy []float64
	// byID lists chain indices in chain-ID order (Evaluate's stream
	// order); arrayChains[ai] lists the chains of array ai.
	byID        []int
	arrayChains [][]int
	// progArrays maps Program.Arrays order (Evaluate's init order) to
	// workspace array indices.
	progArrays []int
	// copyKeys[(base[ci]+lv)*len(onChip)+k] and homeKeys[ai*len(onChip)+k]
	// are the tie-break keys of the copy and re-home moves onto layer
	// onChip[k].
	copyKeys, homeKeys []string
}

// newGreedy builds the out-of-the-box state and the per-search tables.
func newGreedy(ws *workspace.Workspace, plat *platform.Platform, opts Options) *greedy {
	g := &greedy{
		occupancy: newOccupancy(ws, plat, opts.InPlace),
		opts:      opts,
		bg:        plat.Background(),
		onChip:    plat.OnChipLayers(),
	}
	nc, nl, no := len(ws.Chains), len(plat.Layers), len(g.onChip)
	g.base = make([]int, nc+1)
	for ci, ch := range ws.Chains {
		g.base[ci+1] = g.base[ci] + ch.Depth() + 1
	}
	nlv := g.base[nc]

	g.link = make([]int, nl*nl)
	for i := range g.link {
		g.link[i] = -1
	}
	var links [][2]int
	for _, layer := range g.onChip {
		for parent := layer + 1; parent < nl; parent++ {
			g.link[parent*nl+layer] = len(links)
			links = append(links, [2]int{parent, layer})
		}
	}
	g.np = len(links)

	levelBuf, layerBuf := make([]int, nlv), make([]int, nlv)
	g.levels, g.layers = make([][]int, nc), make([][]int, nc)
	g.spans = make([]int, 0, nlv+1)
	g.xferCycles = make([]int64, nlv*g.np)
	g.accCycles, g.accEnergy = make([]int64, nc*nl), make([]float64, nc*nl)
	g.arrayChains = make([][]int, len(ws.Arrays))
	nclasses := 0
	g.copyKeys = make([]string, 0, nlv*no)
	for ci, ch := range ws.Chains {
		lo, hi := g.base[ci], g.base[ci+1]
		g.levels[ci], g.layers[ci] = levelBuf[lo:lo:hi], layerBuf[lo:lo:hi]
		ai := ws.ChainArrayIdx[ci]
		g.arrayChains[ai] = append(g.arrayChains[ai], ci)
		isWrite := ch.Kind == model.Write
		for lv := 0; lv <= ch.Depth(); lv++ {
			e := lo + lv
			g.spans = append(g.spans, nclasses)
			cand := ch.Candidate(lv)
			for c, uc := range cand.Classes {
				bytes := cand.UpdateBytes(c, opts.Policy)
				if uc.Count == 0 || bytes == 0 {
					continue
				}
				nclasses++
				for p, lk := range links {
					src, dst := lk[0], lk[1]
					if isWrite {
						src, dst = dst, src
					}
					g.xferCycles[e*g.np+p] += uc.Count * plat.TransferCycles(src, dst, bytes)
					g.xferEnergy = append(g.xferEnergy, float64(float64(uc.Count)*plat.TransferEnergy(src, dst, bytes)))
				}
			}
			for _, layer := range g.onChip {
				g.copyKeys = append(g.copyKeys, "cc/"+ch.ID+keySuffix(lv, layer))
			}
		}
		n := ch.AccessesPerExecution()
		for layer := range plat.Layers {
			w := int64((ch.Array.ElemSize + plat.Layers[layer].WordBytes - 1) / plat.Layers[layer].WordBytes)
			g.accCycles[ci*nl+layer] = n * w * plat.AccessCycles(layer, isWrite)
			g.accEnergy[ci*nl+layer] = float64(float64(n*w) * plat.AccessEnergy(layer, isWrite))
		}
	}
	g.spans = append(g.spans, nclasses)
	g.homeKeys = make([]string, 0, len(ws.Arrays)*no)
	for _, arr := range ws.Arrays {
		for _, layer := range g.onChip {
			g.homeKeys = append(g.homeKeys, "home/"+arr.Name+keySuffix(0, layer))
		}
	}

	g.byID = make([]int, nc)
	for ci := range g.byID {
		g.byID[ci] = ci
	}
	sort.Slice(g.byID, func(i, j int) bool { return ws.Chains[g.byID[i]].ID < ws.Chains[g.byID[j]].ID })
	g.progArrays = make([]int, len(ws.Program.Arrays))
	for i, arr := range ws.Program.Arrays {
		g.progArrays[i] = ws.ArrayIndex[arr.Name]
	}
	return g
}

// keySuffix renders the level and layer of a move's tie-break key.
func keySuffix(level, layer int) string {
	return "/" + string(rune('0'+level)) + "/" + string(rune('0'+layer))
}

// insert selects copy candidate level of chain ci on the given layer
// at position pos of the chain's selection.
func (g *greedy) insert(ci, pos, level, layer int) {
	lv, ly := g.levels[ci], g.layers[ci]
	lv, ly = lv[:len(lv)+1], ly[:len(ly)+1]
	copy(lv[pos+1:], lv[pos:])
	copy(ly[pos+1:], ly[pos:])
	lv[pos], ly[pos] = level, layer
	g.levels[ci], g.layers[ci] = lv, ly
	g.place(layer, g.ws.CandObjs[ci][level])
}

// remove reverts insert(ci, pos, ...).
func (g *greedy) remove(ci, pos int) {
	lv, ly := g.levels[ci], g.layers[ci]
	g.unplace(ly[pos], g.ws.CandObjs[ci][lv[pos]])
	copy(lv[pos:], lv[pos+1:])
	copy(ly[pos:], ly[pos+1:])
	g.levels[ci], g.layers[ci] = lv[:len(lv)-1], ly[:len(ly)-1]
}

// fold returns the objective score of the current state: the terms of
// Evaluate(EvalOptions{}) added in Evaluate's order — access energy
// over chains in analysis order, transfer energy over selected chains
// in ID order, then level, then class, init energy over Program.Arrays
// — so the score is bit-identical to Score(Evaluate()) of the
// materialized assignment. Cycles are integers, so their order is
// free. With no time extensions nothing is hidden and DMA contention
// is zero.
func (g *greedy) fold() float64 {
	plat, nl := g.plat, len(g.plat.Layers)
	cycles := g.ws.TotalCompute
	var access, transfer, init float64
	for ci := range g.ws.Chains {
		layer := g.homes[g.ws.ChainArrayIdx[ci]]
		if ly := g.layers[ci]; len(ly) > 0 {
			layer = ly[len(ly)-1]
		}
		cycles += g.accCycles[ci*nl+layer]
		access += g.accEnergy[ci*nl+layer]
	}
	for _, ci := range g.byID {
		lys := g.layers[ci]
		if len(lys) == 0 {
			continue
		}
		parent := g.homes[g.ws.ChainArrayIdx[ci]]
		for i, lv := range g.levels[ci] {
			p := g.link[parent*nl+lys[i]]
			e := g.base[ci] + lv
			cycles += g.xferCycles[e*g.np+p]
			for c := g.spans[e]; c < g.spans[e+1]; c++ {
				transfer += g.xferEnergy[c*g.np+p]
			}
			parent = lys[i]
		}
	}
	for _, ai := range g.progArrays {
		home := g.homes[ai]
		if home == g.bg {
			continue
		}
		arr := g.ws.Arrays[ai]
		if arr.Input {
			cycles += plat.TransferCycles(g.bg, home, arr.Bytes())
			init += plat.TransferEnergy(g.bg, home, arr.Bytes())
		}
		if arr.Output {
			cycles += plat.TransferCycles(home, g.bg, arr.Bytes())
			init += plat.TransferEnergy(home, g.bg, arr.Bytes())
		}
	}
	return g.opts.Objective.Score(Cost{Cycles: cycles, Energy: access + transfer + init})
}

// greedyMove identifies one candidate move: a copy of (chain, level)
// inserted at pos of the chain's selection onto layer, or, with chain
// -1, array's re-home from layer from onto layer.
type greedyMove struct {
	chain, level, pos, array, from, layer int
}

// apply takes the move; undo reverts it.
func (g *greedy) apply(mv greedyMove) {
	if mv.chain >= 0 {
		g.insert(mv.chain, mv.pos, mv.level, mv.layer)
	} else {
		g.moveArray(mv.array, mv.from, mv.layer)
	}
}

func (g *greedy) undo(mv greedyMove) {
	if mv.chain >= 0 {
		g.remove(mv.chain, mv.pos)
	} else {
		g.moveArray(mv.array, mv.layer, mv.from)
	}
}

// materialize builds the Assignment of the current state.
func (g *greedy) materialize() *Assignment {
	a := NewInWorkspace(g.ws, g.plat, g.opts.Policy)
	a.InPlace = g.opts.InPlace
	for ai, arr := range g.ws.Arrays {
		a.ArrayHome[arr.Name] = g.homes[ai]
	}
	for ci, ch := range g.ws.Chains {
		if len(g.levels[ci]) == 0 {
			continue
		}
		a.Chains[ch.ID] = &ChainAssign{
			Chain:  ch,
			Levels: append([]int(nil), g.levels[ci]...),
			Layers: append([]int(nil), g.layers[ci]...),
		}
	}
	return a
}

// greedySearch is the steepest-descent heuristic of the MHLA tool:
// start from the out-of-the-box placement (everything in background
// memory, no copies) and repeatedly apply the feasible move with the
// best gain until no move improves the objective. Each iteration
// tries the copy moves (chains in analysis order, levels ascending,
// on-chip layers ascending) and then the re-homes (arrays by name),
// keeping the best criterion and, among exact ties, the smallest move
// key. It polls ctx at the start of every iteration and every 64
// tried moves, and returns nil once ctx is cancelled.
func greedySearch(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) *Result {
	g := newGreedy(ws, plat, opts)
	no := len(g.onChip)
	curScore := g.fold()
	states, tried := 0, 0

	for iter := 0; iter < opts.MaxGreedyIters; iter++ {
		if ctx.Err() != nil {
			return nil
		}
		var best greedyMove
		found := false
		bestCrit, bestScore := 0.0, 0.0
		bestKey := ""
		// try applies a structurally valid move, and if it fits, scores
		// it against the best so far. It reports false once ctx is
		// cancelled.
		try := func(mv greedyMove, bytes int64, key string) bool {
			tried++
			if tried&63 == 0 && ctx.Err() != nil {
				return false
			}
			g.apply(mv)
			if g.fits() {
				states++
				score := g.fold()
				if gain := curScore - score; gain > 1e-9 {
					crit := gain
					if opts.GainPerByte && bytes > 0 {
						crit = gain / float64(bytes)
					}
					if !found || crit > bestCrit || (crit == bestCrit && key < bestKey) {
						best, found, bestCrit, bestScore, bestKey = mv, true, crit, score, key
					}
				}
			}
			g.undo(mv)
			return true
		}

		// Copy-candidate instantiations, keeping each chain's
		// selection monotone: the new copy's layer must sit strictly
		// between its parent's (the previous selected level's layer,
		// or the array home) and its child's.
		for ci, ch := range ws.Chains {
			home := g.homes[ws.ChainArrayIdx[ci]]
			lvs, lys := g.levels[ci], g.layers[ci]
			for level := 0; level <= ch.Depth(); level++ {
				parent, child, pos, selected := home, -1, len(lvs), false
				for i, lv := range lvs {
					if lv == level {
						selected = true
						break
					}
					if lv > level {
						child, pos = lys[i], i
						break
					}
					parent = lys[i]
				}
				if selected {
					continue
				}
				bytes := ws.CandObjs[ci][level].Bytes
				for k, layer := range g.onChip {
					if layer >= parent || layer <= child || bytes > plat.Layers[layer].Capacity {
						continue
					}
					mv := greedyMove{chain: ci, level: level, pos: pos, layer: layer}
					if !try(mv, bytes, g.copyKeys[(g.base[ci]+level)*no+k]) {
						return nil
					}
				}
			}
		}

		// Array re-homing. The first selected copy of each of the
		// array's chains must stay closer to the CPU than the home.
		for ai, arr := range ws.Arrays {
			bytes := arr.Bytes()
		layers:
			for k, layer := range g.onChip {
				if layer == g.homes[ai] || bytes > plat.Layers[layer].Capacity {
					continue
				}
				for _, ci := range g.arrayChains[ai] {
					if lys := g.layers[ci]; len(lys) > 0 && lys[0] >= layer {
						continue layers
					}
				}
				mv := greedyMove{chain: -1, array: ai, from: g.homes[ai], layer: layer}
				if !try(mv, bytes, g.homeKeys[ai*no+k]) {
					return nil
				}
			}
		}

		if !found {
			break
		}
		g.apply(best)
		curScore = bestScore
		if opts.Progress != nil {
			opts.Progress(Progress{Engine: Greedy, States: states, Iter: iter + 1, BestScore: curScore})
		}
	}
	a := g.materialize()
	return &Result{Assignment: a, Cost: a.Evaluate(EvalOptions{}), States: states, Complete: true, Engine: Greedy}
}
