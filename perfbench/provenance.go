package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"mhla/internal/benchmeta"
)

// provenance stamps a result with what produced it.
type provenance struct {
	Host benchmeta.Host `json:"host"`
	// Commit is the git commit of the checkout, or "none" outside a
	// git checkout; SourceSHA256 identifies the sources either way.
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Traced       bool    `json:"traced"`
	Clients      int     `json:"clients"`
	Distinct     int     `json:"distinct_requests"`
	TimedSeconds float64 `json:"timed_s"`
	Samples      int     `json:"samples"`
	// The reported throughput_rps and latency_p99_ms are medians over
	// windows of the timed phase (see stats.go); these are the same
	// figures over the whole phase, so that a stall confined to a few
	// windows still shows here.
	WholeThroughputRPS float64 `json:"whole_phase_throughput_rps,omitempty"`
	WholeP99MS         float64 `json:"whole_phase_p99_ms,omitempty"`
	// ClientCPUMSPerReq is the benchmark process's own CPU time over
	// the timed phase per request attempted: CPU the load generator
	// takes from the host the server runs on.
	ClientCPUMSPerReq float64        `json:"client_cpu_ms_per_req,omitempty"`
	SetupCyclesS      []float64      `json:"setup_cycles_s,omitempty"`
	PeakRSSMB         float64        `json:"peak_rss_mb,omitempty"`
	CacheDelta        *cacheCounters `json:"timed_cache_delta,omitempty"`
	TraceFile         string         `json:"trace_file,omitempty"`
}

func newProvenance(w *workload, traced bool) *provenance {
	p := &provenance{
		Host:         benchmeta.Collect(),
		Commit:       gitCommit(),
		SourceSHA256: sourceDigest("."),
		Workload:     w.name,
		Seed:         w.seed,
		Traced:       traced,
		Clients:      clients,
		Distinct:     len(w.reqs),
	}
	if traced {
		p.Clients = 1
	}
	return p
}

// gitCommit is HEAD of the checkout, or "none".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the path and bytes of every Go source and go.mod
// file under root, skipping hidden directories (build outputs and the
// benchmark's own state live there).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// exactMetrics must repeat bit for bit between runs with the same
// seed: they are functions of the request sequence alone. The
// allocation counts (*_allocs, explore.allocs, assign.search_mb) are
// not among them: a map's growth depends on its randomly seeded hash,
// so the same call can allocate a few objects more or less from run to
// run (about one in ten thousand on these workloads).
var exactMetrics = map[string]bool{
	"mhla_energy_ratio":        true,
	"te_cycles_ratio":          true,
	"server.cache_hit_ratio":   true,
	"server.compiles_per_req":  true,
	"server.evictions_per_req": true,
	"assign.states":            true,
	"explore.states":           true,
}

// runKey names a run's records: its workload, seed, mode and the
// digest of the sources it was built from. Only runs of identical
// sources share a key, so a change that moves a count on purpose is
// not compared with the counts of the code before it.
func runKey(workload string, seed int64, trace int, source string) string {
	return fmt.Sprintf("%s-seed%d-trace%d-src%.16s", workload, seed, trace, source)
}

// checkExact compares the exact metrics with those the previous run
// under the same key recorded in dir, and records them for the next
// run.
func checkExact(dir, key string, metrics map[string]metric) error {
	exact := make(map[string]float64)
	for name, m := range metrics {
		if exactMetrics[name] {
			exact[name] = m.Value
		}
	}
	path := filepath.Join(dir, key+".json")
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		for name, v := range exact {
			if pv, ok := prev[name]; ok && pv != v {
				return fmt.Errorf("guard: exact metric %s = %v, but the previous run with the same seed gave %v", name, v, pv)
			}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	data, err := json.MarshalIndent(exact, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, data)
}

// writeReport keeps the run's provenance and metrics as a file.
func writeReport(key string, prov *provenance, res *result) error {
	data, err := json.MarshalIndent(struct {
		Provenance *provenance `json:"provenance"`
		Result     *result     `json:"result"`
	}{prov, res}, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(stateDir, "results", key+".json"), data)
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(bytes.TrimSpace(data), '\n'), 0o644)
}
