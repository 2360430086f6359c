package platform

// This file is the single source of truth for the elementary cost
// model shared by the assignment search (internal/assign), the time
// extension step (internal/te) and the simulator (internal/sim): what
// one CPU access and one block transfer cost in cycles and energy.

// AccessEnergy returns the energy in pJ of one CPU word access to the
// given layer.
func (p *Platform) AccessEnergy(layer int, write bool) float64 {
	l := &p.Layers[layer]
	if write {
		return l.EnergyWrite
	}
	return l.EnergyRead
}

// AccessCycles returns the processor cycles of one CPU word access to
// the given layer.
func (p *Platform) AccessCycles(layer int, write bool) int64 {
	l := &p.Layers[layer]
	if write {
		return int64(l.LatencyWrite)
	}
	return int64(l.LatencyRead)
}

// UsesDMA reports whether a transfer of the given size is performed
// by the DMA engine (the paper's is_DMA(BT) test): a DMA engine must
// exist and the transfer must be at least its minimum worthwhile
// size. Smaller updates are CPU software copies.
func (p *Platform) UsesDMA(bytes int64) bool {
	return p.DMA != nil && bytes >= int64(p.DMA.MinBytes)
}

// TransferCycles returns the duration in cycles of one block transfer
// of the given size between two layers: the DMA setup cost plus the
// burst time limited by the slower of the two layers. Transfers the
// DMA does not handle (no engine, or below its minimum size) are
// performed by the CPU word-by-word (load from src, store to dst) —
// for the out-of-the-box code that is every transfer.
func (p *Platform) TransferCycles(src, dst int, bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	if !p.UsesDMA(bytes) {
		s, d := &p.Layers[src], &p.Layers[dst]
		return int64(p.SoftCopyCycles) +
			s.Words(bytes)*int64(s.LatencyRead) + d.Words(bytes)*int64(d.LatencyWrite)
	}
	bw := p.Layers[src].BurstBytesPerCycle
	if b := p.Layers[dst].BurstBytesPerCycle; b < bw {
		bw = b
	}
	return int64(p.DMA.SetupCycles) + (bytes+int64(bw)-1)/int64(bw)
}

// TransferEnergy returns the energy in pJ of one block transfer of the
// given size between two layers: a word read per source word, a word
// write per destination word, plus the DMA control energy when the
// DMA engine performs the transfer.
func (p *Platform) TransferEnergy(src, dst int, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	s, d := &p.Layers[src], &p.Layers[dst]
	e := float64(float64(s.Words(bytes))*s.EnergyRead) + float64(float64(d.Words(bytes))*d.EnergyWrite)
	if p.UsesDMA(bytes) {
		e += p.DMA.EnergyPerTransfer
	} else {
		e += p.SoftCopyPJ
	}
	return e
}
