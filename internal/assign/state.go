package assign

import (
	"strconv"
	"strings"

	"mhla/internal/lifetime"
	"mhla/internal/platform"
	"mhla/internal/workspace"
)

// This file holds the mutable, allocation-free inner-loop state of the
// exact search engines (bnb.go). The engines used to deep-clone the
// whole Assignment at every child node and rebuild each layer's
// lifetime profile from scratch inside Fits; searchState instead
// applies one decision at a time against incremental per-layer
// occupancy trackers and undoes it on backtrack, so the steady-state
// DFS allocates nothing. A full Assignment is materialized only at
// improved leaves. The trackers and array homes form the occupancy
// kernel, which the greedy engine (greedy.go) shares.

// objDesc is one precomputed space consumer of a chain decision: the
// layer it occupies plus the ready-made lifetime object (ID string,
// bytes, span), so placing it in the hot loop is a table lookup with
// no formatting or slice building.
type objDesc struct {
	layer int
	obj   lifetime.Object
}

// optionKey encodes a chain selection (levels, layers) as a compact
// string key, so the enumerated options of a chain can be indexed by a
// map instead of compared pairwise (hasOption used to linear-scan with
// slice equality per greedy-seed check).
func optionKey(levels, layers []int) string {
	var b strings.Builder
	for i := range levels {
		b.WriteString(strconv.Itoa(levels[i]))
		b.WriteByte('@')
		b.WriteString(strconv.Itoa(layers[i]))
		b.WriteByte(';')
	}
	return b.String()
}

// buildTables precomputes the per-decision cost tables the incremental
// search reads in its hot loop. The program-side halves — each
// array's lifetime object and used flag, each candidate's lifetime
// object, the chain-to-array index — come ready-made from the
// workspace, and the option enumeration with its lifetime-object
// descriptors and key index comes from the shared platform-shape
// catalog (catalog.go, filtered by capacity in newSpace); only the
// genuinely capacity/cost-dependent tables are built per search:
//
//   - arrayContribTab[ai][hi]: the exact cost contribution of homing
//     array ai at arrayOpts[ai][hi] (aligned with arrayOpts);
//   - chainContribTab[ci][home*len(opts)+oi]: the contribution of
//     chain ci under each (home layer, option) pair — chainContrib
//     depends only on that pair, so per-child cost accumulation
//     becomes one lookup plus add.
func (s *space) buildTables() {
	s.chainArrayIdx = s.ws.ChainArrayIdx
	s.arrayContribTab = make([][]contrib, len(s.arrays))
	for i, arr := range s.arrays {
		tab := make([]contrib, len(s.arrayOpts[i]))
		for hi, home := range s.arrayOpts[i] {
			tab[hi] = arrayContrib(s.plat, arr, home)
		}
		s.arrayContribTab[i] = tab
	}

	nlayers := len(s.plat.Layers)
	s.chainContribTab = make([][]contrib, len(s.chains))
	for ci, ch := range s.chains {
		opts := s.chainOpts[ci]
		tab := make([]contrib, nlayers*len(opts))
		for home := 0; home < nlayers; home++ {
			for oi, op := range opts {
				tab[home*len(opts)+oi] = chainContrib(s.plat, s.opts.Policy, ch, home, op.levels, op.layers)
			}
		}
		s.chainContribTab[ci] = tab
	}
}

// occupancy is the incremental capacity kernel every search engine
// shares: one occupancy tracker per bounded layer plus the home layer
// of every array. Engines place and unplace lifetime objects as they
// apply and undo decisions, and feasibility — the incremental
// equivalent of Assignment.Fits — is an O(layers) check over
// maintained peaks instead of a from-scratch profile rebuild.
type occupancy struct {
	ws   *workspace.Workspace
	plat *platform.Platform
	// trackers holds one incremental occupancy profile per bounded
	// layer (nil for layers with Capacity 0, which Fits ignores).
	trackers []*lifetime.Tracker
	// homes is the current home layer of every array (index-aligned
	// with ws.Arrays).
	homes []int
}

// newOccupancy returns the out-of-the-box occupancy: every array homed
// on the background layer, its object placed in the background
// tracker when that layer is bounded.
func newOccupancy(ws *workspace.Workspace, plat *platform.Platform, inPlace bool) occupancy {
	o := occupancy{
		ws:       ws,
		plat:     plat,
		trackers: make([]*lifetime.Tracker, len(plat.Layers)),
		homes:    make([]int, len(ws.Arrays)),
	}
	for i := range plat.Layers {
		if plat.Layers[i].Capacity > 0 {
			o.trackers[i] = lifetime.NewTracker(ws.NBlocks, inPlace)
		}
	}
	bg := plat.Background()
	for ai := range ws.Arrays {
		o.homes[ai] = bg
		if ws.ArrayUsed[ai] {
			o.place(bg, ws.ArrayObjs[ai])
		}
	}
	return o
}

// fits reports whether every bounded layer's peak occupancy is within
// its capacity.
func (o *occupancy) fits() bool {
	for i, tr := range o.trackers {
		if tr != nil && tr.Peak() > o.plat.Layers[i].Capacity {
			return false
		}
	}
	return true
}

// place adds a space consumer to the layer's tracker (a no-op on
// unbounded layers).
func (o *occupancy) place(layer int, obj lifetime.Object) {
	if tr := o.trackers[layer]; tr != nil {
		tr.Place(obj)
	}
}

// unplace removes a previously placed space consumer.
func (o *occupancy) unplace(layer int, obj lifetime.Object) {
	if tr := o.trackers[layer]; tr != nil {
		tr.Unplace(obj)
	}
}

// moveArray rehomes array ai, moving its lifetime object between the
// affected layer trackers.
func (o *occupancy) moveArray(ai, from, to int) {
	o.homes[ai] = to
	if !o.ws.ArrayUsed[ai] {
		return
	}
	o.unplace(from, o.ws.ArrayObjs[ai])
	o.place(to, o.ws.ArrayObjs[ai])
}

// searchState is the mutable position of one DFS worker in the
// decision tree. It is built once per subtree task (and once for root
// expansion), then mutated in place: apply takes one decision, undo
// reverts it. All slices are preallocated; the apply/undo hot path
// performs no heap allocation.
type searchState struct {
	// occupancy holds the trackers and the array homes; undecided
	// arrays sit on the background layer, which is also the
	// out-of-the-box placement.
	occupancy
	sp *space
	// chainSel is the selected option index per chain, -1 while
	// undecided.
	chainSel []int
}

// newSearchState returns the root state: every array homed on the
// background layer and no chain selections.
func newSearchState(s *space) *searchState {
	st := &searchState{
		occupancy: newOccupancy(s.ws, s.plat, s.opts.InPlace),
		sp:        s,
		chainSel:  make([]int, len(s.chains)),
	}
	for ci := range s.chains {
		st.chainSel[ci] = -1
	}
	return st
}

// apply takes decision oi at the given depth (an array home while
// depth < len(arrays), a chain selection after) and reports whether
// the resulting position is feasible. Infeasible decisions —
// structurally invalid options or capacity overflows — are fully
// undone before returning false, so the state is unchanged. Feasible
// decisions must be reverted with undo(depth, oi).
//
// Feasibility mirrors the clone-per-node engine exactly: trivial
// decisions (background home, empty selection) are taken without a
// capacity check, and non-trivial ones check every bounded layer.
func (st *searchState) apply(depth, oi int) bool {
	s := st.sp
	if depth < len(s.arrays) {
		home := s.arrayOpts[depth][oi]
		if home == s.bg {
			return true
		}
		st.moveArray(depth, s.bg, home)
		if !st.fits() {
			st.moveArray(depth, home, s.bg)
			return false
		}
		return true
	}
	ci := depth - len(s.arrays)
	op := &s.chainOpts[ci][oi]
	if len(op.layers) > 0 && op.layers[0] >= st.homes[s.chainArrayIdx[ci]] {
		return false
	}
	st.chainSel[ci] = oi
	if len(op.levels) == 0 {
		return true
	}
	for _, od := range s.chainObjs[ci][oi] {
		st.place(od.layer, od.obj)
	}
	if !st.fits() {
		st.undo(depth, oi)
		return false
	}
	return true
}

// undo reverts a decision previously applied at the given depth,
// restoring the state to the position before apply(depth, oi).
func (st *searchState) undo(depth, oi int) {
	s := st.sp
	if depth < len(s.arrays) {
		if home := s.arrayOpts[depth][oi]; home != s.bg {
			st.moveArray(depth, home, s.bg)
		}
		return
	}
	ci := depth - len(s.arrays)
	st.chainSel[ci] = -1
	for _, od := range s.chainObjs[ci][oi] {
		st.unplace(od.layer, od.obj)
	}
}

// contribAt returns the precomputed cost contribution of decision oi
// at the given depth. Chain contributions depend on the current home
// of the chain's array, so this must be read while the array prefix is
// applied.
func (st *searchState) contribAt(depth, oi int) contrib {
	s := st.sp
	if depth < len(s.arrays) {
		return s.arrayContribTab[depth][oi]
	}
	ci := depth - len(s.arrays)
	home := st.homes[s.chainArrayIdx[ci]]
	return s.chainContribTab[ci][home*len(s.chainOpts[ci])+oi]
}

// applyPrefix replays a decision prefix produced by root expansion.
// Prefixes are feasible by construction; a failing replay means the
// engine's determinism is broken.
func (st *searchState) applyPrefix(decisions []int) {
	for depth, oi := range decisions {
		if !st.apply(depth, oi) {
			panic("assign: infeasible search-prefix replay")
		}
	}
}

// rewindPrefix undoes a prefix applied with applyPrefix.
func (st *searchState) rewindPrefix(decisions []int) {
	for depth := len(decisions) - 1; depth >= 0; depth-- {
		st.undo(depth, decisions[depth])
	}
}

// materialize builds a full Assignment from the current decisions —
// identical to the one the clone-per-node engine carried at the same
// tree position. Called only at improved leaves and in tests; the hot
// loop never materializes.
func (st *searchState) materialize() *Assignment {
	s := st.sp
	a := s.start.Clone()
	for ai, arr := range s.arrays {
		if st.homes[ai] != s.bg {
			a.SetHome(arr.Name, st.homes[ai])
		}
	}
	for ci, ch := range s.chains {
		oi := st.chainSel[ci]
		if oi < 0 {
			continue
		}
		op := &s.chainOpts[ci][oi]
		if len(op.levels) == 0 {
			continue
		}
		a.Chains[ch.ID] = &ChainAssign{
			Chain:  ch,
			Levels: append([]int(nil), op.levels...),
			Layers: append([]int(nil), op.layers...),
		}
	}
	return a
}
