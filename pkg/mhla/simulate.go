package mhla

import (
	"context"

	"mhla/internal/cachesim"
	"mhla/internal/trace"
)

// The cache-simulator backend re-exports. CacheConfig describes a
// hierarchy of set-associative LRU caches with optional prefetchers;
// Simulate replays the program's access trace through it — the
// hardware-managed counterpart of the analytical scratchpad models.
type (
	// CacheConfig configures one trace-driven simulation run.
	CacheConfig = cachesim.Config
	// CacheLevel describes one cache level of a CacheConfig.
	CacheLevel = cachesim.LevelConfig
	// CacheResult is the outcome of one simulation run.
	CacheResult = cachesim.Result
	// Prefetcher selects a cache level's prefetch algorithm.
	Prefetcher = cachesim.PrefetcherKind
)

// The prefetcher kinds of CacheLevel.Prefetcher.
const (
	PrefetchNone     = cachesim.PrefetchNone
	PrefetchNextLine = cachesim.PrefetchNextLine
	PrefetchStride   = cachesim.PrefetchStride
)

// ErrTraceLimit is wrapped by Simulate when the program's trace
// exceeds the configured (or default) access limit; test with
// errors.Is.
var ErrTraceLimit = trace.ErrLimit

// ParseCachePrefetcher parses a prefetcher name: "none", "nextline" or
// "stride".
func ParseCachePrefetcher(s string) (Prefetcher, error) { return cachesim.ParsePrefetcher(s) }

// CacheConfigFor derives a cache hierarchy matching a platform's
// on-chip layers: one level per layer with the requested associativity
// (0 = 4 ways) and line size (0 = 32 bytes), geometry capped to the
// layer capacity. Prefetchers are off; set CacheLevel.Prefetcher on
// the returned levels to enable them.
func CacheConfigFor(p *Platform, ways, lineBytes int) CacheConfig {
	return cachesim.ConfigFor(p, ways, lineBytes)
}

// Simulate replays the program's dynamic access trace through the
// configured cache hierarchy on the option-selected platform
// (WithPlatform/WithL1, default TwoLevel(DefaultL1)) and prices it
// with the platform cost model. An empty CacheConfig (no levels) is
// the no-cache anchor: it reproduces the analytical out-of-the-box
// cost exactly. With WithWorkspace the compiled analysis is reused;
// otherwise the program is compiled per call. Cancellation aborts the
// replay promptly with ctx.Err(). Equal inputs produce bit-identical
// results at any concurrency — the serving layer relies on it.
func Simulate(ctx context.Context, p *Program, cacheCfg CacheConfig, opts ...Option) (*CacheResult, error) {
	cfg := newConfig(opts)
	if cfg.err == nil {
		if err := cacheCfg.Validate(cfg.platform); err != nil {
			cfg.fail("CacheConfig", err.Error())
		}
	}
	ws, err := cfg.compile(ctx, p)
	if err != nil {
		return nil, err
	}
	return cachesim.Simulate(ctx, ws, cfg.platform, cacheCfg)
}

// SimulateJSON renders a simulation result as indented JSON, the same
// bytes /v1/simulate serves.
func SimulateJSON(r *CacheResult) ([]byte, error) { return r.JSON() }
