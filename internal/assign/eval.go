package assign

import (
	"fmt"

	"mhla/internal/model"
)

// Stream describes one block-transfer stream of an assignment: all
// transfers of one update class of one selected copy candidate. The
// time-extension step schedules prefetches per stream; the evaluator
// charges stalls per stream.
type Stream struct {
	// Key identifies the stream.
	Key StreamKey
	// Level and Class mirror the key for convenience.
	Level, Class int
	// Layer is the copy's layer; Parent is the layer the data comes
	// from (goes to, for write-back streams).
	Layer, Parent int
	// ParentLevel is the copy-candidate level of the parent copy in
	// the same chain, or -1 when the parent is the array home.
	ParentLevel int
	// Count is the number of transfers over the whole program run.
	Count int64
	// Bytes is the size of one transfer.
	Bytes int64
	// BTTime is the duration of one transfer in cycles.
	BTTime int64
	// Write marks write-back streams (copy to parent).
	Write bool
	// BlockIndex is the top-level block the transfers occur in.
	BlockIndex int
	// LoopIndex is the nest loop whose increment triggers the
	// transfers (-1 for the initial fill).
	LoopIndex int
	// chainRef retains the owning chain for dependence analysis.
	ChainID string
}

// Streams enumerates the block-transfer streams of the assignment in
// deterministic order. Streams with zero transfers or zero bytes are
// omitted.
func (a *Assignment) Streams() []Stream {
	var out []Stream
	for _, id := range a.chainIDs() {
		ca := a.Chains[id]
		parent := a.ArrayHome[ca.Chain.Array.Name]
		parentLevel := -1
		for i, lv := range ca.Levels {
			layer := ca.Layers[i]
			cand := ca.Chain.Candidate(lv)
			for ci, uc := range cand.Classes {
				bytes := cand.UpdateBytes(ci, a.Policy)
				if uc.Count == 0 || bytes == 0 {
					continue
				}
				src, dst := parent, layer
				if ca.Chain.Kind == model.Write {
					src, dst = layer, parent
				}
				out = append(out, Stream{
					Key:         StreamKey{Chain: id, Level: lv, Class: ci},
					Level:       lv,
					Class:       ci,
					Layer:       layer,
					Parent:      parent,
					ParentLevel: parentLevel,
					Count:       uc.Count,
					Bytes:       bytes,
					BTTime:      a.Platform.TransferCycles(src, dst, bytes),
					Write:       ca.Chain.Kind == model.Write,
					BlockIndex:  ca.Chain.BlockIndex,
					LoopIndex:   uc.LoopIndex,
					ChainID:     id,
				})
			}
			parent = layer
			parentLevel = lv
		}
	}
	return out
}

// Cost is the evaluated performance and energy of an assignment.
type Cost struct {
	// Cycles is the total execution time in processor cycles.
	Cycles int64
	// Energy is the total memory-subsystem energy in pJ.
	Energy float64

	// Cycle breakdown: pure compute, CPU memory accesses, block
	// transfer stalls, DMA bandwidth contention, and the initial
	// fill / final write-back of on-chip homed arrays.
	ComputeCycles    int64
	AccessCycles     int64
	StallCycles      int64
	ContentionCycles int64
	InitCycles       int64

	// Energy breakdown in pJ.
	AccessEnergyPJ   float64
	TransferEnergyPJ float64
	InitEnergyPJ     float64

	// PerLayerAccesses counts CPU word accesses per layer.
	PerLayerAccesses []int64
}

// EvalOptions select the evaluation mode.
type EvalOptions struct {
	// Hidden gives the prefetch-hidden cycles per stream, as computed
	// by the time-extension step. Nil means no time extensions: every
	// block transfer stalls the processor for its full duration.
	Hidden map[StreamKey]int64
	// Ideal evaluates the paper's ideal case: every block transfer is
	// fully hidden (0 wait cycles), regardless of dependences, sizes
	// and DMA bandwidth.
	Ideal bool
}

// Evaluate computes the cost of the assignment.
//
// Execution time is accounted per top-level block: CPU busy cycles
// (compute plus memory access latency) plus the stall cycles of
// non-hidden block transfers, plus a DMA bandwidth correction — the
// cycles hidden by prefetching cannot exceed the CPU busy time the
// DMA channels can overlap with. Energy counts memory accesses only
// (as in the paper), so it is identical with and without time
// extensions.
func (a *Assignment) Evaluate(opts EvalOptions) Cost {
	p := a.Analysis.Program
	nblocks := len(p.Blocks)
	type acct struct {
		compute, access, stall, hiddenWork int64
	}
	blocks := make([]acct, nblocks)
	cost := Cost{PerLayerAccesses: make([]int64, len(a.Platform.Layers))}

	// Pure-compute cycles come precomputed from the workspace instead
	// of walking every loop body per evaluation.
	for bi := range p.Blocks {
		blocks[bi].compute = a.ws.BlockCompute[bi]
		cost.ComputeCycles += blocks[bi].compute
	}

	// CPU accesses per chain.
	for _, ch := range a.Analysis.Chains {
		layer := a.AccessLayer(ch)
		n := ch.AccessesPerExecution()
		words := a.accessWords(ch.Array.ElemSize, layer)
		isWrite := ch.Kind == model.Write
		cyc := n * words * a.Platform.AccessCycles(layer, isWrite)
		blocks[ch.BlockIndex].access += cyc
		cost.AccessCycles += cyc
		cost.AccessEnergyPJ += float64(float64(n*words) * a.Platform.AccessEnergy(layer, isWrite))
		cost.PerLayerAccesses[layer] += n * words
	}

	// Block transfers.
	for _, st := range a.Streams() {
		src, dst := st.Parent, st.Layer
		if st.Write {
			src, dst = st.Layer, st.Parent
		}
		cost.TransferEnergyPJ += float64(float64(st.Count) * a.Platform.TransferEnergy(src, dst, st.Bytes))
		var hidden int64
		if opts.Ideal {
			// The ideal case hides every DMA block transfer; CPU
			// software copies cannot be overlapped.
			if a.Platform.UsesDMA(st.Bytes) {
				hidden = st.BTTime
			}
		} else if opts.Hidden != nil {
			hidden = opts.Hidden[st.Key]
			if hidden > st.BTTime {
				hidden = st.BTTime
			}
		}
		stall := st.BTTime - hidden
		blocks[st.BlockIndex].stall += st.Count * stall
		cost.StallCycles += st.Count * stall
		if !opts.Ideal {
			blocks[st.BlockIndex].hiddenWork += st.Count * hidden
		}
	}

	// DMA bandwidth contention: per block, the hidden transfer work
	// must fit into the CPU busy time, spread over the channels.
	if a.Platform.DMA != nil {
		ch := int64(a.Platform.DMA.Channels)
		for bi := range blocks {
			need := (blocks[bi].hiddenWork + ch - 1) / ch
			busy := blocks[bi].compute + blocks[bi].access
			if need > busy {
				cost.ContentionCycles += need - busy
			}
		}
	}

	// Initial fill and final write-back of arrays homed on-chip.
	bg := a.Platform.Background()
	for _, arr := range p.Arrays {
		home := a.ArrayHome[arr.Name]
		if home == bg {
			continue
		}
		if arr.Input {
			cost.InitCycles += a.Platform.TransferCycles(bg, home, arr.Bytes())
			cost.InitEnergyPJ += a.Platform.TransferEnergy(bg, home, arr.Bytes())
		}
		if arr.Output {
			cost.InitCycles += a.Platform.TransferCycles(home, bg, arr.Bytes())
			cost.InitEnergyPJ += a.Platform.TransferEnergy(home, bg, arr.Bytes())
		}
	}

	for bi := range blocks {
		cost.Cycles += blocks[bi].compute + blocks[bi].access + blocks[bi].stall
	}
	cost.Cycles += cost.ContentionCycles + cost.InitCycles
	cost.Energy = cost.AccessEnergyPJ + cost.TransferEnergyPJ + cost.InitEnergyPJ
	return cost
}

// accessWords returns the word accesses one element access costs on
// the given layer.
func (a *Assignment) accessWords(elemSize, layer int) int64 {
	w := a.Platform.Layers[layer].WordBytes
	return int64((elemSize + w - 1) / w)
}

// accessLayerBySite maps every access site to the layer its CPU
// accesses hit under this assignment.
func (a *Assignment) accessLayerBySite() map[*model.Access]int {
	m := make(map[*model.Access]int)
	for _, ch := range a.Analysis.Chains {
		layer := a.AccessLayer(ch)
		for _, ref := range ch.Accesses {
			m[ref.Access] = layer
		}
	}
	return m
}

// IterCycles returns the steady-state CPU busy cycles (compute plus
// access latency, no transfer stalls) of ONE iteration of every loop
// of the program under this assignment. The time-extension step uses
// these as the cycles one extension level hides.
func (a *Assignment) IterCycles() map[*model.Loop]int64 {
	sites := a.accessLayerBySite()
	out := make(map[*model.Loop]int64)
	var body func(nodes []model.Node) int64
	body = func(nodes []model.Node) int64 {
		var cyc int64
		for _, n := range nodes {
			switch n := n.(type) {
			case *model.Loop:
				it := body(n.Body)
				out[n] = it
				cyc += int64(n.Trip) * it
			case *model.Access:
				layer := sites[n]
				cyc += a.accessWords(n.Array.ElemSize, layer) *
					a.Platform.AccessCycles(layer, n.Kind == model.Write)
			case *model.Compute:
				cyc += n.Cycles
			}
		}
		return cyc
	}
	for _, b := range a.Analysis.Program.Blocks {
		body(b.Body)
	}
	return out
}

// BlockBusyCycles returns the CPU busy cycles (compute + accesses, no
// stalls) of every top-level block under this assignment.
func (a *Assignment) BlockBusyCycles() []int64 {
	sites := a.accessLayerBySite()
	var body func(nodes []model.Node) int64
	body = func(nodes []model.Node) int64 {
		var cyc int64
		for _, n := range nodes {
			switch n := n.(type) {
			case *model.Loop:
				cyc += int64(n.Trip) * body(n.Body)
			case *model.Access:
				layer := sites[n]
				cyc += a.accessWords(n.Array.ElemSize, layer) *
					a.Platform.AccessCycles(layer, n.Kind == model.Write)
			case *model.Compute:
				cyc += n.Cycles
			}
		}
		return cyc
	}
	out := make([]int64, len(a.Analysis.Program.Blocks))
	for bi, b := range a.Analysis.Program.Blocks {
		out[bi] = body(b.Body)
	}
	return out
}

// Summary renders the cost for reports.
func (c Cost) Summary() string {
	return fmt.Sprintf("cycles=%d (compute=%d access=%d stall=%d contention=%d init=%d) energy=%.1fpJ",
		c.Cycles, c.ComputeCycles, c.AccessCycles, c.StallCycles, c.ContentionCycles, c.InitCycles, c.Energy)
}
