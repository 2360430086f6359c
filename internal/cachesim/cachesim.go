// Package cachesim is a trace-driven hardware cache + prefetch
// simulator: the second backend of the repo, modeling the
// hardware-managed-cache scenario family the software-scratchpad
// models (internal/assign, internal/sim) cannot express.
//
// It replays the dynamic access trace of a program's loop nests — the
// shared streaming iterator of internal/trace, the same walk
// internal/sim consumes — through a configurable hierarchy of
// set-associative LRU caches (one level per on-chip platform layer,
// innermost first), each with an optional FIFO prefetch buffer fed by
// a pluggable next-line or stride prefetcher. It produces per-level
// hit/miss/eviction/writeback counts and prefetch
// issued/useful/late/accuracy statistics, priced in cycles and energy
// with the existing internal/platform cost model — the same
// AccessCycles/AccessEnergy and TransferCycles/TransferEnergy entry
// points the analytical evaluator charges.
//
// # Cost model
//
// Cache level i is backed by platform layer i; the background layer
// serves misses past the last level. Per demand access:
//
//   - every probed cache level charges one word-weighted access at its
//     layer ((ElemSize+WordBytes-1)/WordBytes words, the analytical
//     evaluator's rounding), the innermost level with the demand kind,
//     deeper probes as reads;
//   - an access served by the background memory charges a word-weighted
//     access there with the demand kind — so with no cache levels
//     configured the simulator reproduces the analytical "original"
//     cost exactly (the cross-model anchor the differential test
//     asserts);
//   - each demand fill charges TransferCycles/TransferEnergy of one
//     line from the parent layer; dirty evictions charge the reverse
//     transfer (write-back), marking the containing parent line dirty
//     when the parent is a cache that holds it;
//   - prefetch fills charge transfer energy on arrival but no cycles —
//     prefetching hides latency, it does not hide energy. A demand
//     access that catches its line still in flight counts as a late
//     prefetch and pays the full miss path.
//
// Addresses are synthetic: arrays are laid out contiguously in
// workspace order (sorted by name), each base aligned to the largest
// configured line size, elements row-major. An access is attributed to
// the line containing its first byte.
//
// The simulator is deterministic by construction: the trace order is
// fixed, all state updates are sequential and per call, and the shared
// workspace is read-only, so concurrent Simulate calls are
// byte-identical to sequential ones.
package cachesim

import (
	"context"
	"fmt"

	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/trace"
	"mhla/internal/workspace"
)

// LevelConfig describes one cache level.
type LevelConfig struct {
	// Sets is the number of sets; must be a power of two >= 1.
	Sets int
	// Ways is the associativity; must be >= 1.
	Ways int
	// LineBytes is the line size; must be a power of two >= 1.
	LineBytes int
	// Prefetcher selects the prefetch algorithm (default none).
	Prefetcher PrefetcherKind
	// PrefetchEntries bounds the FIFO prefetch buffer (0 with a
	// prefetcher selected means the default of 8).
	PrefetchEntries int
	// PrefetchDegree is the lines proposed per trigger (0 means 1).
	PrefetchDegree int
	// PrefetchLatency is the arrival delay of a prefetch in demand
	// accesses: an issued line becomes usable after this many further
	// accesses (0 = available at the next access).
	PrefetchLatency int
}

// Config configures one simulation run.
type Config struct {
	// Levels are the cache levels, innermost first; level i is backed
	// by platform layer i. Empty means no caches: every access is
	// served by the background memory (the analytical-anchor
	// configuration).
	Levels []LevelConfig
	// MaxAccesses bounds the replayed trace (0 = the shared
	// trace.DefaultMaxAccesses).
	MaxAccesses int64
}

// Validate checks the configuration against a platform.
func (c Config) Validate(plat *platform.Platform) error {
	if plat == nil {
		return fmt.Errorf("cachesim: nil platform")
	}
	if len(plat.Layers) < 2 {
		return fmt.Errorf("cachesim: platform needs at least 2 memory layers, has %d", len(plat.Layers))
	}
	if len(c.Levels) > len(plat.Layers)-1 {
		return fmt.Errorf("cachesim: %d cache levels exceed the platform's %d on-chip layers",
			len(c.Levels), len(plat.Layers)-1)
	}
	if c.MaxAccesses < 0 {
		return fmt.Errorf("cachesim: negative max accesses %d", c.MaxAccesses)
	}
	for i, lv := range c.Levels {
		if lv.Sets < 1 || lv.Sets&(lv.Sets-1) != 0 {
			return fmt.Errorf("cachesim: level %d sets %d must be a power of two >= 1", i, lv.Sets)
		}
		if lv.Ways < 1 {
			return fmt.Errorf("cachesim: level %d ways %d must be >= 1", i, lv.Ways)
		}
		if lv.LineBytes < 1 || lv.LineBytes&(lv.LineBytes-1) != 0 {
			return fmt.Errorf("cachesim: level %d line bytes %d must be a power of two >= 1", i, lv.LineBytes)
		}
		switch lv.Prefetcher {
		case PrefetchNone, PrefetchNextLine, PrefetchStride:
		default:
			return fmt.Errorf("cachesim: level %d has unknown prefetcher %d", i, int(lv.Prefetcher))
		}
		if lv.PrefetchEntries < 0 || lv.PrefetchDegree < 0 || lv.PrefetchLatency < 0 {
			return fmt.Errorf("cachesim: level %d has negative prefetch parameters", i)
		}
	}
	return nil
}

// normalized applies the prefetch defaults and zeroes the prefetch
// fields of levels without a prefetcher (so equal effective
// configurations render equal wire bytes).
func (c Config) normalized() Config {
	out := c
	out.Levels = append([]LevelConfig(nil), c.Levels...)
	for i := range out.Levels {
		lv := &out.Levels[i]
		if lv.Prefetcher == PrefetchNone {
			lv.PrefetchEntries, lv.PrefetchDegree, lv.PrefetchLatency = 0, 0, 0
			continue
		}
		if lv.PrefetchEntries == 0 {
			lv.PrefetchEntries = 8
		}
		if lv.PrefetchDegree == 0 {
			lv.PrefetchDegree = 1
		}
	}
	return out
}

// ConfigFor derives a cache hierarchy matching the platform's on-chip
// layers: one level per on-chip layer with the requested associativity
// (0 = 4 ways) and line size (0 = 32 bytes), the line capped at the
// layer capacity, the associativity capped at capacity/line, and the
// set count the largest power of two fitting sets*ways*line within the
// layer capacity.
func ConfigFor(plat *platform.Platform, ways, lineBytes int) Config {
	if ways <= 0 {
		ways = 4
	}
	if lineBytes <= 0 {
		lineBytes = 32
	}
	var cfg Config
	for _, li := range plat.OnChipLayers() {
		capacity := plat.Layers[li].Capacity
		line := floorPow2(int64(lineBytes))
		if m := floorPow2(capacity); m < line {
			line = m
		}
		w := int64(ways)
		if m := capacity / line; m < w {
			w = m
		}
		sets := floorPow2(capacity / (w * line))
		cfg.Levels = append(cfg.Levels, LevelConfig{
			Sets: int(sets), Ways: int(w), LineBytes: int(line),
		})
	}
	return cfg
}

// floorPow2 returns the largest power of two <= v (v >= 1).
func floorPow2(v int64) int64 {
	p := int64(1)
	for p*2 <= v {
		p *= 2
	}
	return p
}

// LevelStats are the counted events of one cache level.
type LevelStats struct {
	// Accesses counts demand probes of the level.
	Accesses int64
	// Hits counts demand hits in the cache proper.
	Hits int64
	// PrefetchHits counts demand accesses served by the prefetch
	// buffer (the consumed line moves into the cache).
	PrefetchHits int64
	// Misses counts demand accesses the level could not serve
	// (Accesses == Hits + PrefetchHits + Misses).
	Misses int64
	// Evictions counts lines displaced by fills; Writebacks counts the
	// dirty ones (plus the end-of-trace flush).
	Evictions  int64
	Writebacks int64
	// PrefetchIssued/PrefetchUseful/PrefetchLate count prefetches
	// issued, consumed by a demand access, and caught still in flight
	// by the demand access they were meant to hide.
	PrefetchIssued int64
	PrefetchUseful int64
	PrefetchLate   int64
}

// PrefetchAccuracy is PrefetchUseful/PrefetchIssued (0 when nothing
// was issued).
func (s LevelStats) PrefetchAccuracy() float64 {
	if s.PrefetchIssued == 0 {
		return 0
	}
	return float64(s.PrefetchUseful) / float64(s.PrefetchIssued)
}

// LevelResult is one cache level of a Result: its configuration, the
// platform layer backing it and the counted events.
type LevelResult struct {
	// Layer is the name of the platform layer backing the level.
	Layer string
	LevelConfig
	LevelStats
}

// Result is the outcome of one simulation run.
type Result struct {
	// Program and Platform identify the run.
	Program  string
	Platform string
	// Config is the normalized configuration that ran.
	Config Config
	// Levels holds one entry per cache level, innermost first.
	Levels []LevelResult
	// Accesses is the total demand accesses replayed; MemoryAccesses
	// counts the ones served by the background memory.
	Accesses       int64
	MemoryAccesses int64
	// ComputeCycles is the program's pure-compute cycle count
	// (workspace.TotalCompute); Cycles adds the priced memory time.
	ComputeCycles int64
	Cycles        int64
	// Energy is the total priced energy in pJ.
	Energy float64
}

// inflightLine is one issued, not-yet-arrived prefetch. Arrivals are
// indexed in demand accesses, monotone in issue order (fixed per-level
// latency), so a FIFO queue delivers deterministically.
type inflightLine struct {
	line    int64
	arrival int64
}

// level is the live state of one cache level during a run.
type level struct {
	cfg         LevelConfig
	layer       int // backing platform layer
	parentLayer int // next level's layer, or the background layer
	lineShift   uint
	cache       *cache
	pfb         *prefetchBuffer
	pf          prefetcher
	inflight    []inflightLine
	inflightSet map[int64]bool
	stats       LevelStats
	proposals   []int64 // scratch for prefetcher observe
}

// simState is the whole run state.
type simState struct {
	plat   *platform.Platform
	levels []*level
	bg     int
	// bases maps workspace array index to synthetic base address.
	bases    []int64
	elemSize []int
	arrayIdx map[*model.Array]int

	accesses int64
	memory   int64
	cycles   int64
	energy   float64
}

func newSimState(ws *workspace.Workspace, plat *platform.Platform, cfg Config) *simState {
	st := &simState{
		plat:     plat,
		bg:       plat.Background(),
		arrayIdx: make(map[*model.Array]int, len(ws.Arrays)),
	}
	for i, lv := range cfg.Levels {
		parent := st.bg
		if i+1 < len(cfg.Levels) {
			parent = i + 1
		}
		l := &level{
			cfg:         lv,
			layer:       i,
			parentLayer: parent,
			lineShift:   uint(log2(int64(lv.LineBytes))),
			cache:       newCache(lv.Sets, lv.Ways),
		}
		if lv.Prefetcher != PrefetchNone {
			l.pfb = newPrefetchBuffer(lv.PrefetchEntries)
			l.pf = newPrefetcher(lv, l.lineShift)
			l.inflightSet = make(map[int64]bool)
		}
		st.levels = append(st.levels, l)
	}

	// Synthetic layout: arrays contiguous in workspace (name) order,
	// bases aligned to the largest configured line size.
	align := int64(1)
	for _, lv := range cfg.Levels {
		if int64(lv.LineBytes) > align {
			align = int64(lv.LineBytes)
		}
	}
	st.bases = make([]int64, len(ws.Arrays))
	st.elemSize = make([]int, len(ws.Arrays))
	next := int64(0)
	for i, arr := range ws.Arrays {
		next = (next + align - 1) / align * align
		st.bases[i] = next
		st.elemSize[i] = arr.ElemSize
		st.arrayIdx[arr] = i
		next += arr.Bytes()
	}
	return st
}

// words is the analytical evaluator's word rounding: CPU accesses are
// charged per memory word of the layer.
func words(elemSize, wordBytes int) int64 {
	return int64((elemSize + wordBytes - 1) / wordBytes)
}

// chargeAccess prices one word-weighted CPU access at a layer.
func (st *simState) chargeAccess(layer, elemSize int, write bool) {
	w := words(elemSize, st.plat.Layers[layer].WordBytes)
	st.cycles += w * st.plat.AccessCycles(layer, write)
	st.energy += float64(float64(w) * st.plat.AccessEnergy(layer, write))
}

// access replays one demand access of the trace.
func (st *simState) access(ta *trace.Access) {
	st.accesses++
	now := st.accesses
	for i := range st.levels {
		st.deliver(i, now)
	}

	ai := st.arrayIdx[ta.Site.Array]
	elem := st.elemSize[ai]
	addr := st.bases[ai] + ta.Linear()*int64(elem)
	write := ta.Site.Kind == model.Write

	// Probe down the hierarchy.
	served := len(st.levels) // first level holding the line; len = memory
	for i, lv := range st.levels {
		line := addr >> lv.lineShift
		lv.stats.Accesses++
		st.chargeAccess(lv.layer, elem, write && i == 0)
		if lv.cache.access(line, write && i == 0) {
			lv.stats.Hits++
			served = i
			break
		}
		if lv.inflightSet[line] {
			// The prefetch meant to hide this access has not arrived:
			// late. The demand pays the full miss path; the in-flight
			// entry is wasted.
			lv.stats.PrefetchLate++
			delete(lv.inflightSet, line)
		} else if lv.pfb != nil && lv.pfb.consume(line) {
			lv.stats.PrefetchHits++
			lv.stats.PrefetchUseful++
			st.install(i, line, write && i == 0)
			served = i
			break
		}
		lv.stats.Misses++
	}
	if served == len(st.levels) {
		st.memory++
		st.chargeAccess(st.bg, elem, write)
	}

	// Fill the missed levels outside-in (the serving level already
	// holds the line — a prefetch-buffer consume installed its own).
	for i := served - 1; i >= 0; i-- {
		lv := st.levels[i]
		line := addr >> lv.lineShift
		st.cycles += st.plat.TransferCycles(lv.parentLayer, lv.layer, int64(lv.cfg.LineBytes))
		st.energy += st.plat.TransferEnergy(lv.parentLayer, lv.layer, int64(lv.cfg.LineBytes))
		st.install(i, line, write && i == 0)
	}

	// Prefetchers observe every probed level.
	for i := 0; i <= served && i < len(st.levels); i++ {
		lv := st.levels[i]
		if lv.pf == nil {
			continue
		}
		line := addr >> lv.lineShift
		lv.proposals = lv.pf.observe(ta.Position, addr, line, lv.proposals[:0])
		for _, pl := range lv.proposals {
			st.issue(i, pl, now)
		}
	}
}

// install fills a line into level i, pricing a dirty eviction as a
// write-back to the parent.
func (st *simState) install(i int, line int64, dirty bool) {
	lv := st.levels[i]
	victim, vdirty, evicted := lv.cache.fill(line, dirty)
	if !evicted {
		return
	}
	lv.stats.Evictions++
	if !vdirty {
		return
	}
	st.writeback(i, victim)
}

// writeback prices one dirty line of level i moving to its parent,
// marking the containing parent line dirty when the parent is a cache
// that holds it (no write-allocate on write-back).
func (st *simState) writeback(i int, line int64) {
	lv := st.levels[i]
	lv.stats.Writebacks++
	st.cycles += st.plat.TransferCycles(lv.layer, lv.parentLayer, int64(lv.cfg.LineBytes))
	st.energy += st.plat.TransferEnergy(lv.layer, lv.parentLayer, int64(lv.cfg.LineBytes))
	if i+1 < len(st.levels) {
		next := st.levels[i+1]
		next.cache.markDirty((line << lv.lineShift) >> next.lineShift)
	}
}

// issue enqueues a prefetch proposal unless it is useless (already
// resident, buffered or in flight) or the in-flight window is full.
func (st *simState) issue(i int, line int64, now int64) {
	lv := st.levels[i]
	if line < 0 {
		return
	}
	if lv.cache.contains(line) || lv.pfb.contains(line) || lv.inflightSet[line] {
		return
	}
	if len(lv.inflight) >= lv.cfg.PrefetchEntries {
		return
	}
	lv.stats.PrefetchIssued++
	lv.inflightSet[line] = true
	lv.inflight = append(lv.inflight, inflightLine{line: line, arrival: now + int64(lv.cfg.PrefetchLatency)})
}

// deliver moves arrived prefetches of level i into its buffer,
// charging the (cycle-hidden) fill energy from the innermost deeper
// level holding the line.
func (st *simState) deliver(i int, now int64) {
	lv := st.levels[i]
	for len(lv.inflight) > 0 && lv.inflight[0].arrival < now {
		fl := lv.inflight[0]
		lv.inflight = lv.inflight[1:]
		if !lv.inflightSet[fl.line] {
			continue // overtaken by a late demand access
		}
		delete(lv.inflightSet, fl.line)
		if lv.cache.contains(fl.line) || lv.pfb.contains(fl.line) {
			continue // redundant by arrival time
		}
		src := st.sourceLayer(i, fl.line)
		st.energy += st.plat.TransferEnergy(src, lv.layer, int64(lv.cfg.LineBytes))
		lv.pfb.push(fl.line)
	}
}

// sourceLayer is the platform layer a prefetch of level i's line is
// served from at arrival time: the innermost deeper cache level
// holding the line, else the background memory.
func (st *simState) sourceLayer(i int, line int64) int {
	addr := line << st.levels[i].lineShift
	for j := i + 1; j < len(st.levels); j++ {
		if st.levels[j].cache.contains(addr >> st.levels[j].lineShift) {
			return st.levels[j].layer
		}
	}
	return st.bg
}

// flush drains every dirty line at end of trace, innermost level
// first so dirt cascades to the background memory.
func (st *simState) flush() {
	for i := range st.levels {
		for _, line := range st.levels[i].cache.dirtyLines() {
			st.writeback(i, line)
		}
	}
}

// Simulate replays the program's access trace through the configured
// hierarchy. It reuses the compiled workspace's tables (array order,
// compute totals) and honors ctx: cancellation aborts the replay
// promptly. The result is deterministic: equal inputs produce equal
// results, bit for bit.
func Simulate(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, cfg Config) (*Result, error) {
	if ws == nil {
		return nil, fmt.Errorf("cachesim: nil workspace")
	}
	if err := cfg.Validate(plat); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	st := newSimState(ws, plat, cfg)

	const checkEvery = 1 << 16 // ctx poll interval in accesses
	var ctxErr error
	err := trace.Walk(ws.Program, trace.Options{MaxAccesses: cfg.MaxAccesses}, func(ta *trace.Access) bool {
		if st.accesses&(checkEvery-1) == 0 {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				return false
			}
		}
		st.access(ta)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("cachesim: %w", err)
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	st.flush()

	res := &Result{
		Program:        ws.Program.Name,
		Platform:       plat.Name,
		Config:         cfg,
		Accesses:       st.accesses,
		MemoryAccesses: st.memory,
		ComputeCycles:  ws.TotalCompute,
		Cycles:         ws.TotalCompute + st.cycles,
		Energy:         st.energy,
	}
	for _, lv := range st.levels {
		res.Levels = append(res.Levels, LevelResult{
			Layer:       plat.Layers[lv.layer].Name,
			LevelConfig: lv.cfg,
			LevelStats:  lv.stats,
		})
	}
	return res, nil
}
