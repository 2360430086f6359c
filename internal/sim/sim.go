// Package sim provides an element-level, trace-driven memory
// hierarchy simulator used to cross-validate the analytical models of
// internal/reuse and internal/assign.
//
// The simulator interprets the application model access by access,
// maintaining every selected copy as a software-managed buffer whose
// bounding box follows the fixed loop iterators, exactly as the
// generated data-transfer code of the MHLA tool would. It counts CPU
// word accesses per layer and transferred bytes per block-transfer
// stream, then prices them with the same platform cost model. On any
// program where it is feasible to run (the full iteration space is
// walked), its counts must agree exactly with the closed-form
// evaluation — a property the test suites of this package and of
// internal/core assert.
//
// The simulator is deliberately independent: it recomputes footprint
// boxes from the access expressions instead of reusing the reuse
// package's candidate geometry.
package sim

import (
	"fmt"

	"mhla/internal/assign"
	"mhla/internal/model"
	"mhla/internal/reuse"
	"mhla/internal/trace"
)

// Options bound a trace run.
type Options struct {
	// MaxAccesses aborts the trace when the program would execute
	// more dynamic accesses than this (a guard against accidentally
	// tracing paper-scale workloads; enforced by the shared iterator
	// of internal/trace). 0 means trace.DefaultMaxAccesses.
	MaxAccesses int64
}

// Result holds the counted events of a trace run.
type Result struct {
	// LayerAccesses counts CPU word accesses per layer.
	LayerAccesses []int64
	// TransferBytes accumulates transferred bytes per stream.
	TransferBytes map[assign.StreamKey]int64
	// TransferCount counts transfers per stream.
	TransferCount map[assign.StreamKey]int64
	// Energy is the total priced energy (accesses + transfers + array
	// home fills/write-backs) in pJ.
	Energy float64
}

// copyState tracks one live software-managed copy during the walk.
type copyState struct {
	chain  *reuse.Chain
	level  int
	layer  int
	parent int
	// prefix is the last seen value of the fixed iterators
	// (nest[0:level]); valid is false before the first update.
	prefix []int
	valid  bool
	box    box
	// class attribution: classes[0] is the fill, classes[1+j] belongs
	// to incrementing loop j.
	key func(class int) assign.StreamKey
}

// box is an inclusive integer hyper-rectangle.
type box struct{ lo, hi []int }

func (b box) volume() int64 {
	v := int64(1)
	for d := range b.lo {
		v *= int64(b.hi[d] - b.lo[d] + 1)
	}
	return v
}

func (b box) intersectVolume(o box) int64 {
	v := int64(1)
	for d := range b.lo {
		lo, hi := b.lo[d], b.hi[d]
		if o.lo[d] > lo {
			lo = o.lo[d]
		}
		if o.hi[d] < hi {
			hi = o.hi[d]
		}
		if hi < lo {
			return 0
		}
		v *= int64(hi - lo + 1)
	}
	return v
}

// Trace interprets the program under the given assignment and returns
// the counted events. The dynamic access order comes from the shared
// streaming iterator of internal/trace — the same walk the hardware
// cache simulator (internal/cachesim) replays — so the two simulators
// cannot drift on trace semantics.
func Trace(a *assign.Assignment, opts Options) (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	p := a.Analysis.Program

	res := &Result{
		LayerAccesses: make([]int64, len(a.Platform.Layers)),
		TransferBytes: make(map[assign.StreamKey]int64),
		TransferCount: make(map[assign.StreamKey]int64),
	}

	// Site lookup: chain and access layer per access site.
	siteChain := make(map[*model.Access]*reuse.Chain)
	for _, ch := range a.Analysis.Chains {
		for _, ref := range ch.Accesses {
			siteChain[ref.Access] = ch
		}
	}

	// Instantiate the copies of every block up front (Selections order
	// within a block decides the parent chaining, as before).
	blockCopies := make([][]*copyState, len(p.Blocks))
	blockChainCopies := make([]map[*reuse.Chain][]*copyState, len(p.Blocks))
	for bi := range p.Blocks {
		blockChainCopies[bi] = make(map[*reuse.Chain][]*copyState)
	}
	for _, sel := range a.Selections() {
		sel := sel
		bi := sel.Chain.BlockIndex
		parent := a.ArrayHome[sel.Chain.Array.Name]
		if prev := blockChainCopies[bi][sel.Chain]; len(prev) > 0 {
			parent = prev[len(prev)-1].layer
		}
		cs := &copyState{
			chain:  sel.Chain,
			level:  sel.Level,
			layer:  sel.Layer,
			parent: parent,
			prefix: make([]int, sel.Level),
			key: func(class int) assign.StreamKey {
				return assign.StreamKey{Chain: sel.Chain.ID, Level: sel.Level, Class: class}
			},
		}
		blockCopies[bi] = append(blockCopies[bi], cs)
		blockChainCopies[bi][sel.Chain] = append(blockChainCopies[bi][sel.Chain], cs)
	}

	// Drain write copies at block end (the final write-back,
	// attributed to the fill class like the analytical model).
	drain := func(bi int) {
		for _, cs := range blockCopies[bi] {
			if cs.chain.Kind == model.Write && cs.valid {
				cs.transfer(a, res, 0, cs.box.volume())
			}
		}
	}

	cur := 0
	err := trace.Walk(p, trace.Options{MaxAccesses: opts.MaxAccesses}, func(ta *trace.Access) bool {
		for cur < ta.Block {
			drain(cur)
			cur++
		}
		n := ta.Site
		ch := siteChain[n]
		for _, cs := range blockChainCopies[ta.Block][ch] {
			cs.sync(a, ta.Env, res)
		}
		layer := a.AccessLayer(ch)
		words := int64((n.Array.ElemSize + a.Platform.Layers[layer].WordBytes - 1) /
			a.Platform.Layers[layer].WordBytes)
		res.LayerAccesses[layer] += words
		res.Energy += float64(float64(words) * a.Platform.AccessEnergy(layer, n.Kind == model.Write))
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	for cur < len(p.Blocks) {
		drain(cur)
		cur++
	}

	// Price the array home fills/write-backs the same way the
	// evaluator does (they are not observable from the access trace).
	bg := a.Platform.Background()
	for _, arr := range p.Arrays {
		home := a.ArrayHome[arr.Name]
		if home == bg {
			continue
		}
		if arr.Input {
			res.Energy += a.Platform.TransferEnergy(bg, home, arr.Bytes())
		}
		if arr.Output {
			res.Energy += a.Platform.TransferEnergy(home, bg, arr.Bytes())
		}
	}
	return res, nil
}

// sync brings the copy up to date with the current iterators,
// counting any resulting transfer.
func (cs *copyState) sync(a *assign.Assignment, env map[string]int, res *Result) {
	// Current fixed prefix.
	changed := -1 // outermost changed loop, -1 = no change
	if !cs.valid {
		changed = -2 // first fill
	}
	for j := 0; j < cs.level; j++ {
		v := env[cs.chain.Nest[j].Var]
		if cs.valid && cs.prefix[j] != v && changed == -1 {
			changed = j
		}
		cs.prefix[j] = v
	}
	if changed == -1 {
		return
	}
	newBox := cs.currentBox(env)
	var moved int64
	var class int
	if changed == -2 {
		moved = newBox.volume()
		class = 0
	} else {
		moved = newBox.volume() - newBox.intersectVolume(cs.box)
		class = changed + 1
	}
	if a.Policy == reuse.Refetch {
		moved = newBox.volume()
	}
	oldBox := cs.box
	cs.box = newBox
	cs.valid = true
	if moved == 0 {
		return
	}
	if cs.chain.Kind == model.Write {
		// Write copies drain the outgoing region; the volume equals
		// the incoming one (the boxes are translates). The very first
		// update has nothing to drain yet.
		if changed == -2 {
			return
		}
		_ = oldBox
	}
	cs.transfer(a, res, class, moved)
}

// transfer records one block transfer of the given element volume.
func (cs *copyState) transfer(a *assign.Assignment, res *Result, class int, elems int64) {
	bytes := elems * int64(cs.chain.Array.ElemSize)
	key := cs.key(class)
	res.TransferBytes[key] += bytes
	res.TransferCount[key]++
	src, dst := cs.parent, cs.layer
	if cs.chain.Kind == model.Write {
		src, dst = cs.layer, cs.parent
	}
	res.Energy += a.Platform.TransferEnergy(src, dst, bytes)
}

// currentBox computes the bounding box of the chain's access group for
// the current fixed prefix, sweeping the loops below the copy level.
func (cs *copyState) currentBox(env map[string]int) box {
	ch := cs.chain
	rank := ch.Array.Rank()
	b := box{lo: make([]int, rank), hi: make([]int, rank)}
	for d := 0; d < rank; d++ {
		first := true
		for _, ref := range ch.Accesses {
			e := ref.Access.Index[d]
			lo, hi := e.Const, e.Const
			for _, t := range e.Terms {
				idx := nestIndex(ch, t.Var)
				if idx >= 0 && idx < cs.level {
					lo += t.Coef * env[t.Var]
					hi += t.Coef * env[t.Var]
					continue
				}
				trip := 1
				if idx >= 0 {
					trip = ch.Nest[idx].Trip
				}
				span := t.Coef * (trip - 1)
				if span >= 0 {
					hi += span
				} else {
					lo += span
				}
			}
			if first || lo < b.lo[d] {
				b.lo[d] = lo
			}
			if first || hi > b.hi[d] {
				b.hi[d] = hi
			}
			first = false
		}
	}
	return b
}

func nestIndex(ch *reuse.Chain, v string) int {
	for i, l := range ch.Nest {
		if l.Var == v {
			return i
		}
	}
	return -1
}
