package cachesim

import (
	"bytes"
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"mhla/internal/assign"
	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/progen"
	"mhla/internal/reuse"
	"mhla/internal/trace"
	"mhla/internal/workspace"
)

// diffConfig generates larger traces than the progen defaults so the
// caches actually warm up and evict.
var diffConfig = progen.Config{MaxTrip: 16, MaxDepth: 3, MaxNests: 3}

const diffSeeds = 60 // >= 50 scenarios per the acceptance bar

// cycleBounds computes an analytical sandwich for the simulated cycle
// count of a configuration, by one extra pass over the same trace:
//
//   - lower: compute plus one word-weighted L1 probe per access — every
//     demand access pays at least its innermost probe, whatever else
//     happens;
//   - upper: compute plus, per access, the full miss path (every probe,
//     the background access, one fill and one write-back per level)
//     plus a flush allowance of one write-back per cache slot.
//
// Prefetching only removes charged components from an access (hits
// skip the deeper path, arrivals are cycle-free), so the same sandwich
// bounds every prefetcher variant of the configuration.
func cycleBounds(t *testing.T, ws *workspace.Workspace, plat *platform.Platform, cfg Config) (lower, upper int64) {
	t.Helper()
	cfg = cfg.normalized()
	bg := plat.Background()
	err := trace.Walk(ws.Program, trace.Options{}, func(ta *trace.Access) bool {
		elem := ta.Site.Array.ElemSize
		write := ta.Site.Kind == model.Write
		if len(cfg.Levels) == 0 {
			w := words(elem, plat.Layers[bg].WordBytes)
			lower += w * plat.AccessCycles(bg, write)
			upper += w * plat.AccessCycles(bg, write)
			return true
		}
		lower += words(elem, plat.Layers[0].WordBytes) * plat.AccessCycles(0, write)
		for i, lv := range cfg.Levels {
			parent := bg
			if i+1 < len(cfg.Levels) {
				parent = i + 1
			}
			upper += words(elem, plat.Layers[i].WordBytes) * plat.AccessCycles(i, write && i == 0)
			upper += plat.TransferCycles(parent, i, int64(lv.LineBytes)) // fill
			upper += plat.TransferCycles(i, parent, int64(lv.LineBytes)) // eviction write-back
		}
		upper += words(elem, plat.Layers[bg].WordBytes) * plat.AccessCycles(bg, write)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, lv := range cfg.Levels {
		parent := bg
		if i+1 < len(cfg.Levels) {
			parent = i + 1
		}
		upper += int64(lv.Sets) * int64(lv.Ways) * plat.TransferCycles(i, parent, int64(lv.LineBytes))
	}
	return ws.TotalCompute + lower, ws.TotalCompute + upper
}

// TestCrossModelDifferential validates the trace-driven simulator
// against the analytical MHLA model over randomized scenarios:
//
//  1. Anchor: with no cache levels the simulator must reproduce the
//     analytical out-of-the-box ("original") cost exactly — same
//     cycles, same energy (1e-9 relative, FP summation order), same
//     access count. The two models price the identical event stream
//     through the identical platform tables, so any drift is a bug in
//     one of them.
//  2. Conservation: with caches configured, per-level demand counts
//     must telescope (level i+1 sees level i's misses; memory sees the
//     last level's).
//  3. Bounds: the simulated cycle count must sit inside the analytical
//     sandwich of cycleBounds for every configuration, including the
//     prefetcher variants.
func TestCrossModelDifferential(t *testing.T) {
	for seed := int64(1); seed <= diffSeeds; seed++ {
		sc := diffConfig.Generate(seed)
		ws, err := workspace.Compile(sc.Program)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		plat := sc.Platform

		// 1. No-cache anchor vs the analytical evaluator.
		res, err := Simulate(context.Background(), ws, plat, Config{})
		if err != nil {
			t.Fatalf("seed %d anchor: %v", seed, err)
		}
		base := assign.NewInWorkspace(ws, plat, reuse.Slide).Evaluate(assign.EvalOptions{})
		if res.Cycles != base.Cycles {
			t.Errorf("seed %d: simulated no-cache cycles %d != analytical %d", seed, res.Cycles, base.Cycles)
		}
		if tol := 1e-9 * (1 + math.Abs(base.Energy)); math.Abs(res.Energy-base.Energy) > tol {
			t.Errorf("seed %d: simulated no-cache energy %v != analytical %v", seed, res.Energy, base.Energy)
		}
		if want := ws.Program.TotalAccesses(); res.Accesses != want || res.MemoryAccesses != want {
			t.Errorf("seed %d: accesses %d/%d, want %d demand accesses all served by memory",
				seed, res.Accesses, res.MemoryAccesses, want)
		}

		// 2+3. Cached configurations: plain and both prefetchers.
		plain := ConfigFor(plat, 0, 0)
		variants := []Config{plain}
		for _, kind := range []PrefetcherKind{PrefetchNextLine, PrefetchStride} {
			v := Config{Levels: append([]LevelConfig(nil), plain.Levels...)}
			for i := range v.Levels {
				v.Levels[i].Prefetcher = kind
				v.Levels[i].PrefetchLatency = 2
			}
			variants = append(variants, v)
		}
		for vi, cfg := range variants {
			res, err := Simulate(context.Background(), ws, plat, cfg)
			if err != nil {
				t.Fatalf("seed %d variant %d: %v", seed, vi, err)
			}
			prev := res.Accesses
			for li, lv := range res.Levels {
				if lv.Hits+lv.PrefetchHits+lv.Misses != lv.Accesses {
					t.Errorf("seed %d variant %d level %d: hits %d + pf %d + misses %d != accesses %d",
						seed, vi, li, lv.Hits, lv.PrefetchHits, lv.Misses, lv.Accesses)
				}
				if lv.Accesses != prev {
					t.Errorf("seed %d variant %d level %d: accesses %d, want %d (previous level's misses)",
						seed, vi, li, lv.Accesses, prev)
				}
				if lv.PrefetchUseful > lv.PrefetchIssued {
					t.Errorf("seed %d variant %d level %d: useful %d > issued %d",
						seed, vi, li, lv.PrefetchUseful, lv.PrefetchIssued)
				}
				prev = lv.Misses
			}
			if res.MemoryAccesses != prev {
				t.Errorf("seed %d variant %d: memory accesses %d != last-level misses %d",
					seed, vi, res.MemoryAccesses, prev)
			}
			lower, upper := cycleBounds(t, ws, plat, cfg)
			if res.Cycles < lower || res.Cycles > upper {
				t.Errorf("seed %d variant %d: cycles %d outside analytical bounds [%d, %d]",
					seed, vi, res.Cycles, lower, upper)
			}
			if res.Energy < 0 || math.IsNaN(res.Energy) || math.IsInf(res.Energy, 0) {
				t.Errorf("seed %d variant %d: bad energy %v", seed, vi, res.Energy)
			}
		}
	}
}

// TestSimulateConcurrentDeterministic: Simulate calls sharing one
// workspace from 1, 2, 4 and 8 goroutines render results
// byte-identical to a sequential run.
func TestSimulateConcurrentDeterministic(t *testing.T) {
	type job struct {
		ws   *workspace.Workspace
		plat *platform.Platform
		cfg  Config
	}
	var jobs []job
	for seed := int64(1); seed <= 6; seed++ {
		sc := diffConfig.Generate(seed)
		ws, err := workspace.Compile(sc.Program)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		plain := ConfigFor(sc.Platform, 0, 0)
		nextline := Config{Levels: append([]LevelConfig(nil), plain.Levels...)}
		for i := range nextline.Levels {
			nextline.Levels[i].Prefetcher = PrefetchNextLine
		}
		for _, cfg := range []Config{{}, plain, nextline} {
			jobs = append(jobs, job{ws, sc.Platform, cfg})
		}
	}
	var want [][]byte
	for _, workers := range []int{1, 2, 4, 8} {
		got := make([][]byte, len(jobs))
		errs := make([]error, len(jobs))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					res, err := Simulate(context.Background(), jobs[i].ws, jobs[i].plat, jobs[i].cfg)
					if err == nil {
						got[i], err = res.JSON()
					}
					errs[i] = err
				}
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("workers %d job %d: %v", workers, i, err)
			}
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("workers %d result %d diverges from sequential run:\n%s\nvs\n%s",
					workers, i, got[i], want[i])
			}
		}
	}
}
