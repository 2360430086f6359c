package server

import (
	"errors"

	"mhla/pkg/mhla"
)

// Intake limits of one simulate request: the cache geometry a client
// may ask for is bounded so a hostile request cannot allocate
// arbitrarily large set arrays or replay an unbounded trace on a
// compute slot.
const (
	maxSimLevels    = 4
	maxSimSets      = 1 << 20
	maxSimWays      = 64
	maxSimLineBytes = 4096
	maxSimEntries   = 1024
	maxSimDegree    = 8
	maxSimLatency   = 1_000_000
	maxSimAccesses  = 50_000_000
)

// simLevelJSON is one cache level of a simulate request, mirroring
// mhla.CacheLevel in snake_case.
type simLevelJSON struct {
	Sets            int    `json:"sets"`
	Ways            int    `json:"ways"`
	LineBytes       int    `json:"line_bytes"`
	Prefetcher      string `json:"prefetcher,omitempty"`
	PrefetchEntries int    `json:"prefetch_entries,omitempty"`
	PrefetchDegree  int    `json:"prefetch_degree,omitempty"`
	PrefetchLatency int    `json:"prefetch_latency,omitempty"`
}

// simulateRequest is the POST /v1/simulate body.
type simulateRequest struct {
	programRef
	platformRef
	// Levels configures the cache hierarchy explicitly. Absent means a
	// default hierarchy derived from the platform's on-chip layers
	// (mhla.CacheConfigFor); present but empty means no caches — the
	// memory-only anchor configuration.
	Levels *[]simLevelJSON `json:"levels,omitempty"`
	// MaxAccesses bounds the replayed trace (0 = the facade default).
	MaxAccesses int64 `json:"max_accesses,omitempty"`
}

// cacheConfig maps the request's cache selection onto the facade
// configuration, applying the intake limits. Geometry validity proper
// (powers of two, level count vs platform layers) is the facade's job —
// its typed *OptionError comes back as invalid_option.
func (req *simulateRequest) cacheConfig(plat *mhla.Platform) (mhla.CacheConfig, *apiError) {
	var cfg mhla.CacheConfig
	if req.MaxAccesses < 0 || req.MaxAccesses > maxSimAccesses {
		return cfg, badRequest("invalid_option", "max_accesses %d out of range [0, %d]", req.MaxAccesses, maxSimAccesses)
	}
	cfg.MaxAccesses = req.MaxAccesses
	if req.Levels == nil {
		cfg.Levels = mhla.CacheConfigFor(plat, 0, 0).Levels
		return cfg, nil
	}
	if len(*req.Levels) > maxSimLevels {
		return cfg, badRequest("bad_request", "%d cache levels exceed the limit of %d", len(*req.Levels), maxSimLevels)
	}
	for i, lv := range *req.Levels {
		if lv.Sets > maxSimSets || lv.Ways > maxSimWays || lv.LineBytes > maxSimLineBytes {
			return cfg, badRequest("invalid_option",
				"level %d geometry exceeds the limits (sets <= %d, ways <= %d, line_bytes <= %d)",
				i, maxSimSets, maxSimWays, maxSimLineBytes)
		}
		if lv.PrefetchEntries > maxSimEntries || lv.PrefetchDegree > maxSimDegree || lv.PrefetchLatency > maxSimLatency {
			return cfg, badRequest("invalid_option",
				"level %d prefetch parameters exceed the limits (entries <= %d, degree <= %d, latency <= %d)",
				i, maxSimEntries, maxSimDegree, maxSimLatency)
		}
		kind, err := mhla.ParseCachePrefetcher(lv.Prefetcher)
		if err != nil {
			return cfg, badRequest("invalid_option", "level %d: %v", i, err)
		}
		cfg.Levels = append(cfg.Levels, mhla.CacheLevel{
			Sets:            lv.Sets,
			Ways:            lv.Ways,
			LineBytes:       lv.LineBytes,
			Prefetcher:      kind,
			PrefetchEntries: lv.PrefetchEntries,
			PrefetchDegree:  lv.PrefetchDegree,
			PrefetchLatency: lv.PrefetchLatency,
		})
	}
	return cfg, nil
}

// mapSimulateError translates a simulate failure into the typed wire
// form: the trace-limit rejection is input-derived (the program is too
// big for the requested budget), everything else follows the shared
// mapping.
func mapSimulateError(err error) *apiError {
	if errors.Is(err, mhla.ErrTraceLimit) {
		return badRequest("too_many_accesses", "%v", err)
	}
	return mapRunError(err)
}
