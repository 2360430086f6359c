// Package lifetime implements the in-place (lifetime-aware) size
// estimation of the MHLA flow.
//
// The paper exploits the "limited lifetime of the arrays of an
// application": two objects whose lifetimes do not overlap can share
// the same physical space, so the capacity a layer needs is not the
// sum of all assigned object sizes but the peak of the live-set size
// over time. Lifetimes are tracked at the granularity of the
// program's top-level blocks, which is the granularity at which the
// multimedia applications of the paper alternate between phases
// (e.g. "gauss-x" then "gauss-y" then "detect").
//
// Arrays are live from the block of their first access to the block
// of their last access (extended to the program boundaries for Input
// and Output arrays). A copy is live exactly in the block of its loop
// nest, extended backwards when time extensions prefetch it across a
// block boundary.
package lifetime

import (
	"fmt"
	"sort"

	"mhla/internal/model"
)

// Object is one space consumer placed on a memory layer during
// [Start, End] (inclusive block indices).
type Object struct {
	// ID names the object in diagnostics (array name or chain ID).
	ID string
	// Bytes is the space the object occupies while live.
	Bytes int64
	// Start and End delimit the lifetime in block indices, inclusive.
	Start, End int
}

// Estimator computes layer occupancy from object lifetimes.
type Estimator struct {
	// NumBlocks is the number of top-level blocks of the program.
	NumBlocks int
	// InPlace enables lifetime-aware sharing. When false every object
	// is treated as live for the whole program (the ablation
	// baseline, equivalent to static allocation).
	InPlace bool
}

// NewEstimator returns an in-place estimator for a program.
func NewEstimator(p *model.Program) *Estimator {
	return &Estimator{NumBlocks: len(p.Blocks), InPlace: true}
}

// Profile returns the per-block occupancy in bytes.
func (e *Estimator) Profile(objects []Object) []int64 {
	prof := make([]int64, e.NumBlocks)
	for _, o := range objects {
		start, end := o.Start, o.End
		if !e.InPlace {
			start, end = 0, e.NumBlocks-1
		}
		if start < 0 {
			start = 0
		}
		if end >= e.NumBlocks {
			end = e.NumBlocks - 1
		}
		for b := start; b <= end; b++ {
			prof[b] += o.Bytes
		}
	}
	return prof
}

// Peak returns the maximum occupancy over all blocks — the capacity a
// layer must provide to host the objects.
func (e *Estimator) Peak(objects []Object) int64 {
	var peak int64
	for _, v := range e.Profile(objects) {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// Span is the lifetime of one array in block indices.
type Span struct {
	Start, End int
	// Used reports whether the array is accessed at all (or is an
	// Input/Output array, which is always considered used).
	Used bool
}

// ArraySpans computes the lifetime of every array of the program.
// Input arrays are live from block 0; Output arrays are live until the
// last block; other arrays span their first to last accessed block.
func ArraySpans(p *model.Program) map[string]Span {
	spans := make(map[string]Span, len(p.Arrays))
	for _, a := range p.Arrays {
		spans[a.Name] = Span{Start: -1, End: -1}
	}
	for _, ref := range p.Accesses() {
		s := spans[ref.Access.Array.Name]
		if !s.Used {
			s = Span{Start: ref.BlockIndex, End: ref.BlockIndex, Used: true}
		} else {
			if ref.BlockIndex < s.Start {
				s.Start = ref.BlockIndex
			}
			if ref.BlockIndex > s.End {
				s.End = ref.BlockIndex
			}
		}
		spans[ref.Access.Array.Name] = s
	}
	last := len(p.Blocks) - 1
	for _, a := range p.Arrays {
		s := spans[a.Name]
		if a.Input {
			if !s.Used {
				s = Span{Start: 0, End: 0, Used: true}
			}
			s.Start = 0
		}
		if a.Output {
			if !s.Used {
				s = Span{Start: last, End: last, Used: true}
			}
			s.End = last
		}
		spans[a.Name] = s
	}
	return spans
}

// Describe renders a per-block occupancy table for diagnostics.
func (e *Estimator) Describe(objects []Object) string {
	sorted := append([]Object(nil), objects...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	s := ""
	for _, o := range sorted {
		s += fmt.Sprintf("  %-24s %8dB  blocks %d..%d\n", o.ID, o.Bytes, o.Start, o.End)
	}
	prof := e.Profile(objects)
	for b, v := range prof {
		s += fmt.Sprintf("  block %d: %dB\n", b, v)
	}
	return s
}
