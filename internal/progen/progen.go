// Package progen is a seeded, deterministic random generator of valid
// MHLA scenarios: Program/Platform pairs plus search operating points,
// spanning array counts, reuse-chain shapes, hierarchy depths, layer
// sizes, transfer policies and objectives. It is the scenario backbone
// of the cross-engine differential harness: for any seed it produces
// the same instance bit-for-bit, every instance passes model and
// platform validation by construction, and the exact-search decision
// space is kept below Config.MaxSpace so the exhaustive reference
// engine stays tractable.
//
// Typical use:
//
//	sc := progen.Generate(seed)
//	an, _ := reuse.Analyze(sc.Program)
//	opts := sc.Options
//	opts.Engine = assign.BranchBound
//	res, _ := assign.SearchContext(ctx, an, sc.Platform, opts)
//
// The generator builds the program incrementally — one loop nest at a
// time — and sizes every array from the actual index ranges of the
// accesses referencing it, so accesses are always in bounds. A nest
// that would push the decision space (assign.SpaceSize) over the
// budget is dropped again and generation stops, which bounds the cost
// of an exhaustive search over any generated instance.
package progen

import (
	"fmt"
	"math/rand"

	"mhla/internal/assign"
	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/reuse"
)

// Config bounds the generated scenarios. The zero value of any field
// means its default.
type Config struct {
	// MaxArrays caps the arrays per program (default 3).
	MaxArrays int
	// MaxBlocks caps the top-level blocks (default 2).
	MaxBlocks int
	// MaxNests caps the loop nests per block (default 2).
	MaxNests int
	// MaxDepth caps the loop nest depth (default 2).
	MaxDepth int
	// MaxAccesses caps the access sites per nest (default 3).
	MaxAccesses int
	// MaxTrip caps loop trip counts (default 8, minimum 2).
	MaxTrip int
	// MaxOnChip caps the on-chip memory layers (default 2); every
	// platform adds one unbounded off-chip background layer.
	MaxOnChip int
	// MaxSpace caps the exact-search decision space of the instance
	// (default 10000 leaves) so the exhaustive engine stays cheap.
	MaxSpace int64
}

// DefaultConfig returns the configuration Generate uses.
func DefaultConfig() Config {
	return Config{
		MaxArrays:   3,
		MaxBlocks:   2,
		MaxNests:    2,
		MaxDepth:    2,
		MaxAccesses: 3,
		MaxTrip:     8,
		MaxOnChip:   2,
		MaxSpace:    10_000,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxArrays <= 0 {
		c.MaxArrays = d.MaxArrays
	}
	if c.MaxBlocks <= 0 {
		c.MaxBlocks = d.MaxBlocks
	}
	if c.MaxNests <= 0 {
		c.MaxNests = d.MaxNests
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = d.MaxDepth
	}
	if c.MaxAccesses <= 0 {
		c.MaxAccesses = d.MaxAccesses
	}
	if c.MaxTrip < 2 {
		c.MaxTrip = d.MaxTrip
	}
	if c.MaxOnChip <= 0 {
		c.MaxOnChip = d.MaxOnChip
	}
	if c.MaxSpace <= 0 {
		c.MaxSpace = d.MaxSpace
	}
	return c
}

// Scenario is one generated differential-test instance.
type Scenario struct {
	// Seed reproduces the scenario via Generate.
	Seed int64
	// Program is a valid application model (model.Validate passes).
	Program *model.Program
	// Platform is a valid architecture (platform.Validate passes).
	Platform *platform.Platform
	// Options carries randomized operating points (policy, objective,
	// in-place estimation, greedy ranking); Engine, Workers and the
	// caps are left zero for the caller to set.
	Options assign.Options
	// Space is the exact-search decision space of the instance, as
	// reported by assign.SpaceSize (at most Config.MaxSpace).
	Space int64
}

// Generate builds the scenario of the given seed under DefaultConfig.
func Generate(seed int64) *Scenario { return DefaultConfig().Generate(seed) }

// Generate builds the scenario of the given seed: same seed and
// config, same scenario, bit for bit.
func (c Config) Generate(seed int64) *Scenario {
	c = c.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	plat := c.genPlatform(rng)
	prog, space := c.genProgram(rng, plat, seed)
	return &Scenario{
		Seed:     seed,
		Program:  prog,
		Platform: plat,
		Options: assign.Options{
			Policy:      pickPolicy(rng),
			Objective:   assign.Objective(rng.Intn(3)),
			InPlace:     rng.Float64() < 0.75,
			GainPerByte: rng.Float64() < 0.75,
		},
		Space: space,
	}
}

func pickPolicy(rng *rand.Rand) reuse.Policy {
	if rng.Float64() < 0.25 {
		return reuse.Refetch
	}
	return reuse.Slide
}

// genPlatform builds a valid 2..MaxOnChip+1 layer hierarchy with
// monotone capacities, energies and latencies, and an optional DMA
// engine.
func (c Config) genPlatform(rng *rand.Rand) *platform.Platform {
	onChip := 1 + rng.Intn(c.MaxOnChip)
	word := 2 << rng.Intn(2) // 2 or 4 bytes
	capacity := int64(64 << rng.Intn(5))
	energy := 0.5 + float64(rng.Float64())
	latency := 1
	burst := 4 << rng.Intn(2)

	p := &platform.Platform{Name: "progen"}
	for i := 0; i < onChip; i++ {
		p.Layers = append(p.Layers, platform.Layer{
			Name:               fmt.Sprintf("L%d", i+1),
			Capacity:           capacity,
			WordBytes:          word,
			EnergyRead:         energy,
			EnergyWrite:        energy * 1.1,
			LatencyRead:        latency,
			LatencyWrite:       latency,
			BurstBytesPerCycle: burst,
		})
		capacity *= int64(2 + rng.Intn(7))
		energy *= 2 + float64(4*rng.Float64())
		latency += 1 + rng.Intn(3)
	}
	p.Layers = append(p.Layers, platform.Layer{
		Name:               "SDRAM",
		Capacity:           0,
		WordBytes:          word,
		EnergyRead:         energy * (4 + float64(8*rng.Float64())),
		EnergyWrite:        energy * (4.5 + float64(8*rng.Float64())),
		LatencyRead:        latency + 6 + rng.Intn(18),
		LatencyWrite:       latency + 6 + rng.Intn(18),
		BurstBytesPerCycle: 2 << rng.Intn(2),
		OffChip:            true,
	})
	// EnergyWrite monotonicity: the on-chip write energy is read*1.1,
	// so monotone reads imply monotone writes; the background draw
	// above starts at 4.5x the last on-chip read, above its 1.1x write.
	if rng.Float64() < 0.75 {
		p.DMA = &platform.DMA{
			SetupCycles:       5 + rng.Intn(40),
			Channels:          1 + rng.Intn(3),
			EnergyPerTransfer: 40 * rng.Float64(),
			MinBytes:          []int{0, 0, 16, 64}[rng.Intn(4)],
		}
	}
	if rng.Float64() < 0.5 {
		p.SoftCopyCycles = rng.Intn(8)
		p.SoftCopyPJ = 4 * rng.Float64()
	}
	return p
}

// genArray is one array under construction: the extents needed by the
// accesses generated so far, plus a fixed per-dimension slack.
type genArray struct {
	arr   *model.Array
	need  []int
	slack []int
}

// genProgram grows the program nest by nest, keeping the exact-search
// decision space within c.MaxSpace.
func (c Config) genProgram(rng *rand.Rand, plat *platform.Platform, seed int64) (*model.Program, int64) {
	p := model.NewProgram(fmt.Sprintf("progen-%d", seed))

	narr := 1 + rng.Intn(c.MaxArrays)
	arrays := make([]*genArray, narr)
	for i := range arrays {
		rank := 1 + rng.Intn(2)
		elem := []int{1, 2, 4}[rng.Intn(3)]
		arr := p.NewArray(fmt.Sprintf("a%d", i), elem, make([]int, rank)...)
		arr.Input = rng.Float64() < 0.7
		arr.Output = rng.Float64() < 0.25
		ga := &genArray{arr: arr, need: make([]int, rank), slack: make([]int, rank)}
		for d := range ga.slack {
			ga.slack[d] = rng.Intn(3)
		}
		arrays[i] = ga
	}

	nblocks := 1 + rng.Intn(c.MaxBlocks)
	for b := 0; b < nblocks; b++ {
		p.AddBlock(fmt.Sprintf("blk%d", b))
	}

	finalize := func() {
		for _, ga := range arrays {
			for d := range ga.arr.Dims {
				ga.arr.Dims[d] = ga.need[d] + 1 + ga.slack[d]
			}
		}
	}
	space := func() (int64, bool) {
		finalize()
		an, err := reuse.Analyze(p)
		if err != nil {
			return 0, false
		}
		return assign.SpaceSize(an, plat), true
	}

	// The empty program (blocks without nests) is always within
	// budget as long as the array homes alone fit; shrink the array
	// list if even that overflows (only possible with a tiny
	// MaxSpace).
	for {
		sp, ok := space()
		if ok && sp <= c.MaxSpace {
			break
		}
		if len(arrays) == 1 {
			break
		}
		arrays = arrays[:len(arrays)-1]
		p.Arrays = p.Arrays[:len(p.Arrays)-1]
	}

	best, _ := space()
	for b := 0; b < nblocks; b++ {
		nests := 1 + rng.Intn(c.MaxNests)
		for n := 0; n < nests; n++ {
			snapshot := make([][]int, len(arrays))
			for i, ga := range arrays {
				snapshot[i] = append([]int(nil), ga.need...)
			}
			block := p.Blocks[b]
			before := len(block.Body)
			block.Body = append(block.Body, c.genNest(rng, arrays, b, n)...)
			sp, ok := space()
			if !ok || sp > c.MaxSpace {
				// Too big (or, defensively, invalid): drop the nest
				// and stop growing the program.
				block.Body = block.Body[:before]
				for i, ga := range arrays {
					copy(ga.need, snapshot[i])
				}
				best, _ = space()
				return p, best
			}
			best = sp
		}
	}
	return p, best
}

// genNest builds one loop nest: depth loops around a handful of
// affine accesses and a compute statement. Index expressions use only
// non-negative coefficients and constants, and every referenced
// array's needed extent is recorded, so the final dimensioning keeps
// all accesses in bounds.
func (c Config) genNest(rng *rand.Rand, arrays []*genArray, bi, ni int) []model.Node {
	depth := 1 + rng.Intn(c.MaxDepth)
	vars := make([]string, depth)
	trips := make([]int, depth)
	tripEnv := make(map[string]int, depth)
	for d := range vars {
		vars[d] = fmt.Sprintf("b%dn%dv%d", bi, ni, d)
		trips[d] = 2 + rng.Intn(c.MaxTrip-1)
		tripEnv[vars[d]] = trips[d]
	}

	naccess := 1 + rng.Intn(c.MaxAccesses)
	var body []model.Node
	for a := 0; a < naccess; a++ {
		ga := arrays[rng.Intn(len(arrays))]
		idx := make([]model.Expr, len(ga.arr.Dims))
		for d := range idx {
			idx[d] = c.genExpr(rng, vars, trips)
			_, max := idx[d].Range(tripEnv)
			if max > ga.need[d] {
				ga.need[d] = max
			}
		}
		kind := model.Read
		if rng.Float64() < 0.2 {
			kind = model.Write
		}
		body = append(body, &model.Access{Array: ga.arr, Kind: kind, Index: idx})
	}
	body = append(body, model.Work(int64(1+rng.Intn(40))))

	nodes := body
	for d := depth - 1; d >= 0; d-- {
		nodes = []model.Node{&model.Loop{Var: vars[d], Trip: trips[d], Body: nodes}}
	}
	return nodes
}

// genExpr draws one affine index expression over the nest iterators:
// a constant, a (possibly scaled or shifted) iterator, or the tiled
// pattern trip(inner)*outer + inner that produces the classic
// block-copy reuse chains.
func (c Config) genExpr(rng *rand.Rand, vars []string, trips []int) model.Expr {
	switch k := rng.Intn(6); {
	case k == 0:
		return model.ConstExpr(rng.Intn(3))
	case k <= 2:
		return model.Idx(vars[rng.Intn(len(vars))])
	case k == 3:
		return model.Idx(vars[rng.Intn(len(vars))]).PlusConst(rng.Intn(4))
	case k == 4:
		return model.IdxC(1+rng.Intn(3), vars[rng.Intn(len(vars))])
	default:
		if len(vars) < 2 {
			return model.Idx(vars[0])
		}
		o := rng.Intn(len(vars) - 1)
		i := o + 1
		return model.IdxC(trips[i], vars[o]).Plus(model.Idx(vars[i]))
	}
}
