// Command perfbench is the repository's end-to-end benchmark of the
// MHLA serving path. It starts the mhla-serve binary as a separate
// process on a loopback port with default flags and drives one of
// three workloads at it in a closed loop over two keep-alive
// connections that share one cursor over the seeded request sequence.
// Every response is checked against the bytes the pkg/mhla facade
// produced for the same request in this process before the server
// started, and against the model's ordering invariants.
//
// Usage, from the repository root (perfbench/run.sh builds both
// binaries first):
//
//	perfbench --workload run-warm|run-cold|sweep-exact --seed N --seconds S --trace 0|1 --server PATH
//
// With --trace 0 it measures the server from outside only — over HTTP,
// through /healthz and from /proc/<pid> — and reports the end-to-end
// metrics. With --trace 1 it instead serves the same request sequence
// from an in-process server over one connection, records spans around
// the handler and around the facade calls of every layer, and reports
// the per-layer metrics (see trace.go).
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": V, "unit": U}, ...}}
//
// A guard that fails (a compile in run-warm's timed phase, a cache hit
// in run-cold's, a p99 with fewer than ten samples beyond it, an exact
// metric that differs from the previous run with the same seed) makes
// the run exit 1 without printing a result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// stateDir holds everything a run leaves behind, relative to the
// repository root it runs from: binaries, logs, traces, results and
// the exact metrics of earlier runs.
const stateDir = ".perfbench"

// rssInterval is how often the server's resident memory is sampled
// during the timed phase.
const rssInterval = 100 * time.Millisecond

// bootCycles is how many boot-and-prime cycles set-up is the median
// of: one boot varies by several milliseconds between identical runs.
const bootCycles = 11

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload: run-warm, run-cold or sweep-exact")
		seed         = flag.Int64("seed", 1, "workload seed")
		seconds      = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace        = flag.Int("trace", 0, "1 runs the traced in-process run and reports per-layer metrics")
		serverBin    = flag.String("server", filepath.Join(stateDir, "bin", "mhla-serve"), "mhla-serve binary")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, prov, err := run(ctx, *workloadName, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *serverBin)
	if err != nil {
		fatalf("%v", err)
	}
	key := runKey(*workloadName, *seed, *trace, prov.SourceSHA256)
	if err := checkExact(filepath.Join(stateDir, "exact"), key, res.Metrics); err != nil {
		fatalf("%v", err)
	}
	if err := writeReport(key, prov, res); err != nil {
		fatalf("%v", err)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-26s %16.6f %s\n", name, m.Value, m.Unit)
	}
	provLine, err := json.Marshal(prov)
	if err != nil {
		fatalf("encode provenance: %v", err)
	}
	fmt.Printf("provenance %s\n", provLine)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func closeAll(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// run builds the workload and measures it.
func run(ctx context.Context, name string, seed int64, timed time.Duration, traced bool, serverBin string) (*result, *provenance, error) {
	w, err := buildWorkload(ctx, name, seed)
	if err != nil {
		return nil, nil, err
	}
	prov := newProvenance(w, traced)
	if traced {
		res, err := runTraced(ctx, w, prov)
		return res, prov, err
	}
	res, err := runEndToEnd(ctx, w, timed, serverBin, prov)
	return res, prov, err
}

// runEndToEnd boots the server bootCycles times, priming it each time,
// and drives the timed phase against the last boot.
func runEndToEnd(ctx context.Context, w *workload, timed time.Duration, serverBin string, prov *provenance) (*result, error) {
	// The client needs far less than a CPU; on one P it leaves the
	// server's two Ps fewer threads to contend with for the host's
	// CPUs, which steadies the latency tail.
	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(filepath.Join(stateDir, "logs"), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(stateDir, "logs", fmt.Sprintf("serve-%s-seed%d.log", w.name, w.seed)))
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	var (
		setups []float64
		srv    *serverProc
		conns  []*conn
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for cycle := range bootCycles {
		if srv != nil {
			closeAll(conns)
			err := srv.stop()
			srv = nil
			if err != nil {
				return nil, fmt.Errorf("stop server after boot %d: %w", cycle, err)
			}
		}
		start := time.Now()
		if srv, err = startServer(serverBin, logf); err != nil {
			return nil, err
		}
		if err := srv.waitHealthy(ctx, 20*time.Second); err != nil {
			return nil, err
		}
		conns = []*conn{newConn(srv.addr), newConn(srv.addr)}
		if err := countPhase(ctx, conns, w, w.prime).errIfFailed("priming"); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	before, err := healthCache(srv.health, srv.baseURL)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	client0, err := procCPUTime("self")
	if err != nil {
		return nil, err
	}
	stopRSS := make(chan struct{})
	rssSamples := srv.sampleRSS(rssInterval, stopRSS)
	ph := timedPhase(ctx, conns, w, timed)
	close(stopRSS)
	rss := <-rssSamples
	client1, err := procCPUTime("self")
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	after, err := healthCache(srv.health, srv.baseURL)
	if err != nil {
		return nil, err
	}
	hwm, err := srv.memory("VmHWM")
	if err != nil {
		return nil, err
	}
	if len(rss) == 0 {
		return nil, fmt.Errorf("no VmRSS sample of the server during the timed phase")
	}
	closeAll(conns)
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	if ph.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed; first: %v\n", ph.failed(), ph.attempted, ph.firstErr)
	}

	// Guards: the timed phase must exercise the layer the workload is
	// there for.
	delta := after.minus(before)
	switch {
	case w.name == runWarm && delta.Compiles != 0:
		return nil, fmt.Errorf("guard: run-warm's timed phase compiled %d workspaces, want 0", delta.Compiles)
	case w.name == runCold && delta.Hits != 0:
		return nil, fmt.Errorf("guard: run-cold's timed phase had %d cache hits, want 0", delta.Hits)
	}
	p50, _ := percentile(ph.latencies(), 0.50)
	p99, err := windowTail(ph.samples, 0.99)
	if err != nil {
		return nil, fmt.Errorf("guard: %w", err)
	}
	wholeP99, err := tailPercentile(ph.latencies(), 0.99)
	if err != nil {
		return nil, fmt.Errorf("guard: %w", err)
	}
	if math.IsInf(p99, 1) || math.IsInf(p50, 1) || math.IsInf(wholeP99, 1) {
		return nil, fmt.Errorf("guard: the latency percentiles fall on failed requests (%d of %d failed; first: %v)",
			ph.failed(), ph.attempted, ph.firstErr)
	}
	energy, err := geomean(w.energyRatios)
	if err != nil {
		return nil, err
	}
	cycles, err := geomean(w.cycleRatios)
	if err != nil {
		return nil, err
	}
	prov.TimedSeconds = ph.elapsed.Seconds()
	prov.Samples = len(ph.samples)
	prov.WholeThroughputRPS = float64(ph.verified) / ph.elapsed.Seconds()
	prov.WholeP99MS = wholeP99
	prov.ClientCPUMSPerReq = ms(client1-client0) / float64(ph.attempted)
	prov.PeakRSSMB = float64(hwm) / (1 << 20)
	prov.SetupCyclesS = setups
	prov.CacheDelta = &delta

	m := map[string]metric{
		"setup_s":               {median(setups), "s"},
		"throughput_rps":        {windowThroughput(ph.samples, ph.elapsed), "1/s"},
		"latency_p50_ms":        {p50, "ms"},
		"latency_p99_ms":        {p99, "ms"},
		"ok_frac":               {float64(ph.verified) / float64(ph.attempted), "ratio"},
		"server_cpu_ms_per_req": {ms(cpu1-cpu0) / float64(ph.attempted), "ms"},
		"server_rss_mb":         {median(rss), "MB"},
		"mhla_energy_ratio":     {energy, "ratio"},
		"te_cycles_ratio":       {cycles, "ratio"},
	}
	return &result{Correct: ph.failed() == 0, Attempted: ph.attempted, Failed: ph.failed(), Metrics: m}, nil
}
