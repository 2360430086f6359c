package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mhla/internal/server"
	"mhla/pkg/mhla"
)

// The traced run serves the workload from an in-process server (the
// same internal/server handler mhla-serve mounts, with default
// configuration plus the Progress and OnCompile hooks) over one
// loopback connection. For every request it records
//
//   - a request span: the client's round trip;
//   - a server.handler span around the handler, and inside it the flow
//     phases the Progress hook announces and the compile OnCompile
//     announces;
//   - once the response is in and checked, a replay of the request's
//     flow through the pkg/mhla facade, layer by layer, on the
//     benchmark's goroutine: a span with its allocation count around
//     each call. The replay's result must encode to the server's bytes.
//
// Allocations are counted from runtime.MemStats around each call with
// the collector paused and after two collections, so sync.Pool caches
// start empty; the counts then repeat to a few in ten thousand (map
// growth follows each map's random hash seed). Spans are kept in
// memory and written to .perfbench/traces at the end.

// traceLength is how many requests the traced run sends: whole passes
// over the catalog, or one trip around the run-cold pool.
func traceLength(w *workload) int {
	switch w.name {
	case runWarm:
		return 8 * len(w.reqs)
	case sweepExact:
		return 2 * len(w.reqs)
	}
	return len(w.order)
}

// span is one traced interval. Times are nanoseconds since the trace
// began; Parent 0 means a root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Allocs  uint64 `json:"allocs,omitempty"`
	Bytes   uint64 `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer collects spans. The hooks run on server goroutines, so every
// field below mu is guarded by it.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu       sync.Mutex
	spans    []span
	request  int // current request number (1-based)
	rootID   int // its request span
	handler  span
	compiled bool
	// phase is the open in-handler phase span, closed by the next hook
	// event or the handler's return.
	phase *span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// addLocked appends a span and returns its ID.
func (t *tracer) addLocked(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens request n: its root span ID is reserved now and filled in
// by end.
func (t *tracer) begin(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.request = n
	t.rootID = t.addLocked(span{Request: n, Name: "request"})
	t.handler = span{}
	t.compiled = false
	t.phase = nil
}

// end closes the root span of the current request.
func (t *tracer) end(start, stop int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := &t.spans[t.rootID-1]
	root.StartNS, root.EndNS = start, stop
}

// closePhaseLocked closes the open in-handler phase span at ts.
func (t *tracer) closePhaseLocked(ts int64) {
	if t.phase != nil {
		t.phase.EndNS = ts
		t.addLocked(*t.phase)
		t.phase = nil
	}
}

// openPhase starts an in-handler span, closing the open one.
func (t *tracer) openPhase(name string) {
	if !t.on.Load() {
		return
	}
	ts := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closePhaseLocked(ts)
	t.phase = &span{Parent: t.handler.ID, Request: t.request, Name: name, StartNS: ts}
}

// progress is the server's Config.Progress hook: phase entries open
// a span; engine snapshots are ignored.
func (t *tracer) progress(p mhla.Progress) {
	if p.Search == (mhla.SearchProgress{}) {
		t.openPhase("server.flow." + string(p.Phase))
	}
}

// onCompile is the server's Config.OnCompile hook.
func (t *tracer) onCompile(string) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.compiled = true
	t.mu.Unlock()
	t.openPhase("server.compile")
}

// wrap puts a server.handler span around every request the handler
// serves while tracing is on.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t.mu.Lock()
		t.handler = span{Parent: t.rootID, Request: t.request, Name: "server.handler", StartNS: t.now()}
		t.handler.ID = t.addLocked(t.handler)
		t.mu.Unlock()
		h.ServeHTTP(w, r)
		ts := t.now()
		t.mu.Lock()
		t.closePhaseLocked(ts)
		t.handler.EndNS = ts
		t.spans[t.handler.ID-1] = t.handler
		t.mu.Unlock()
	})
}

// measure runs fn as a replay span of the current request, counting
// its allocations. The caller has paused the collector.
func (t *tracer) measure(name string, fn func() error) (span, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := t.now()
	err := fn()
	stop := t.now()
	runtime.ReadMemStats(&after)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Parent: t.rootID, Request: t.request, Name: name, StartNS: start, EndNS: stop,
		Allocs: after.Mallocs - before.Mallocs, Bytes: after.TotalAlloc - before.TotalAlloc}
	s.ID = t.addLocked(s)
	return s, err
}

// layerTotals accumulates the replayed layers over the traced requests.
type layerTotals struct {
	sum    map[string]time.Duration
	allocs map[string]uint64
	bytes  map[string]uint64
	// serverPath is the replayed time of the calls the server's own
	// path makes, per request (the Original and MHLA evaluations and
	// the separate reuse analysis are extra: the server's search and
	// compile already include them).
	serverPath   time.Duration
	searchStates int
	sweepStates  int
}

func (lt *layerTotals) add(s span, onServerPath bool) {
	lt.sum[s.Name] += s.dur()
	lt.allocs[s.Name] += s.Allocs
	lt.bytes[s.Name] += s.Bytes
	if onServerPath {
		lt.serverPath += s.dur()
	}
}

// runTraced runs the traced in-process run and reports the per-layer
// metrics.
func runTraced(ctx context.Context, w *workload, prov *provenance) (*result, error) {
	tr := &tracer{t0: time.Now()}
	srv := server.New(server.Config{Progress: tr.progress, OnCompile: tr.onCompile})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: tr.wrap(srv.Handler())}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	url := "http://" + ln.Addr().String()
	health := &http.Client{Timeout: 5 * time.Second}
	defer health.CloseIdleConnections()
	c := newConn(ln.Addr().String())
	defer c.close()
	conns := []*conn{c}

	if err := countPhase(ctx, conns, w, w.prime).errIfFailed("priming"); err != nil {
		return nil, err
	}
	n := traceLength(w)
	seq := make([]int, 2*n)
	for i := range seq {
		seq[i] = w.order[i%len(w.order)]
	}
	untraced := countPhase(ctx, conns, w, seq[:n])
	if err := untraced.errIfFailed("untraced pass"); err != nil {
		return nil, err
	}

	before, err := healthCache(health, url)
	if err != nil {
		return nil, err
	}
	lt := &layerTotals{sum: map[string]time.Duration{}, allocs: map[string]uint64{}, bytes: map[string]uint64{}}
	var (
		roundTrips, handlers, unattributed time.Duration
		latencies                          []float64
	)
	tr.on.Store(true)
	for i, idx := range seq[n:] {
		r := w.reqs[idx]
		tr.begin(i + 1)
		start := tr.now()
		status, body, err := c.do(ctx, r.raw)
		stop := tr.now()
		tr.end(start, stop)
		if err == nil {
			err = r.verify(status, body)
		}
		if err != nil {
			return nil, fmt.Errorf("traced request %d: %w", i+1, err)
		}
		tr.mu.Lock()
		handler, compiled := tr.handler, tr.compiled
		tr.mu.Unlock()
		pathBefore := lt.serverPath
		if err := replay(ctx, tr, lt, r, compiled, body); err != nil {
			return nil, fmt.Errorf("replay of traced request %d (%s): %w", i+1, r.label, err)
		}
		rt := time.Duration(stop - start)
		roundTrips += rt
		handlers += handler.dur()
		unattributed += max(0, handler.dur()-(lt.serverPath-pathBefore))
		latencies = append(latencies, ms(rt))
	}
	tr.on.Store(false)
	after, err := healthCache(health, url)
	if err != nil {
		return nil, err
	}
	delta := after.minus(before)

	tracePath := filepath.Join(stateDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, w.seed))
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return nil, err
	}
	if err := writeFile(tracePath, data); err != nil {
		return nil, err
	}
	prov.TraceFile = tracePath
	prov.Samples = n
	prov.CacheDelta = &delta

	perReq := func(d time.Duration) float64 { return ms(d) / float64(n) }
	count := func(v uint64) float64 { return float64(v) / float64(n) }
	tracedP50, _ := percentile(latencies, 0.5)
	untracedP50, _ := percentile(untraced.latencies(), 0.5)
	lookups := delta.Hits + delta.Misses
	if lookups == 0 {
		return nil, errors.New("traced pass made no workspace-cache lookups")
	}
	m := map[string]metric{
		"transport.ms":             {perReq(roundTrips - handlers), "ms"},
		"server.handler_ms":        {perReq(handlers), "ms"},
		"server.overhead_ms":       {perReq(handlers - lt.serverPath), "ms"},
		"server.cache_hit_ratio":   {float64(delta.Hits) / float64(lookups), "ratio"},
		"server.compiles_per_req":  {float64(delta.Compiles) / float64(n), "count"},
		"server.evictions_per_req": {float64(delta.Evictions) / float64(n), "count"},
		"modelio.decode_ms":        {perReq(lt.sum["modelio.decode"]), "ms"},
		"modelio.decode_allocs":    {count(lt.allocs["modelio.decode"]), "count"},
		"modelio.digest_ms":        {perReq(lt.sum["modelio.digest"]), "ms"},
		"workspace.compile_ms":     {perReq(lt.sum["workspace.compile"]), "ms"},
		"workspace.compile_allocs": {count(lt.allocs["workspace.compile"]), "count"},
		"reuse.analyze_ms":         {perReq(lt.sum["reuse.analyze"]), "ms"},
		"assign.search_ms":         {perReq(lt.sum["assign.search"]), "ms"},
		"assign.search_allocs":     {count(lt.allocs["assign.search"]), "count"},
		"assign.search_mb":         {count(lt.bytes["assign.search"]) / (1 << 20), "MB"},
		"assign.states":            {float64(lt.searchStates) / float64(n), "count"},
		"te.extend_ms":             {perReq(lt.sum["te.extend"]), "ms"},
		"te.extend_allocs":         {count(lt.allocs["te.extend"]), "count"},
		"eval.evaluate_ms":         {perReq(lt.sum["eval.evaluate"]), "ms"},
		"eval.evaluate_allocs":     {count(lt.allocs["eval.evaluate"]), "count"},
		"explore.sweep_ms":         {perReq(lt.sum["explore.sweep"]), "ms"},
		"explore.states":           {float64(lt.sweepStates) / float64(n), "count"},
		"explore.allocs":           {count(lt.allocs["explore.sweep"]), "count"},
		"encode.ms":                {perReq(lt.sum["encode"]), "ms"},
		"trace.unattributed_frac":  {float64(unattributed) / float64(handlers), "ratio"},
		"trace.overhead_frac":      {tracedP50/untracedP50 - 1, "ratio"},
	}
	return &result{Correct: true, Attempted: n, Failed: 0, Metrics: m}, nil
}

// replay runs a traced request's flow again through the facade, one
// span per layer call, and checks the result encodes to the server's
// response. compiled reports whether the server compiled the program
// for this request (the OnCompile hook fired).
func replay(ctx context.Context, tr *tracer, lt *layerTotals, r *request, compiled bool, served []byte) error {
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	step := func(name string, onServerPath bool, fn func() error) error {
		s, err := tr.measure(name, fn)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		lt.add(s, onServerPath)
		return nil
	}
	var body []byte
	if r.sweep {
		var sw *mhla.Sweep
		err := step("explore.sweep", true, func() (err error) {
			sw, err = mhla.SweepL1(ctx, nil, nil, append([]mhla.Option{mhla.WithWorkspace(r.ws)}, r.opts...)...)
			return err
		})
		if err != nil {
			return err
		}
		for _, p := range sw.Points {
			lt.sweepStates += p.Result.SearchStates
		}
		if err := step("encode", true, func() (err error) { body, err = sw.JSON(); return err }); err != nil {
			return err
		}
	} else {
		var err error
		if body, err = replayRun(ctx, step, lt, r, compiled); err != nil {
			return err
		}
	}
	if string(body) != string(served) {
		return errors.New("the replayed flow encodes to different bytes than the server sent")
	}
	return nil
}

// replayRun replays a run request: for inline programs decode, digest
// and (when the server compiled) compile and the reuse analysis; then
// search, time extension, the four operating-point evaluations and the
// encode.
func replayRun(ctx context.Context, step func(string, bool, func() error) error, lt *layerTotals,
	r *request, compiled bool) ([]byte, error) {
	ws, plat := r.ws, r.plat
	if r.progJSON != nil {
		var prog *mhla.Program
		err := step("modelio.decode", true, func() (err error) {
			if prog, err = mhla.DecodeProgram(r.progJSON); err != nil {
				return err
			}
			plat, err = mhla.DecodePlatform(r.platJSON)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := step("modelio.digest", true, func() error { _, err := mhla.ProgramDigest(prog); return err }); err != nil {
			return nil, err
		}
		if compiled {
			if err := step("workspace.compile", true, func() (err error) { ws, err = mhla.Compile(prog); return err }); err != nil {
				return nil, err
			}
			if err := step("reuse.analyze", false, func() error { _, err := mhla.Analyze(prog); return err }); err != nil {
				return nil, err
			}
		} else if ws, err = mhla.Compile(prog); err != nil {
			return nil, err
		}
	}

	var sr *mhla.SearchResult
	err := step("assign.search", true, func() (err error) {
		sr, err = mhla.Search(ctx, ws.Analysis, plat, r.opts...)
		return err
	})
	if err != nil {
		return nil, err
	}
	lt.searchStates += sr.States
	var plan *mhla.Plan
	if err := step("te.extend", true, func() (err error) { plan, err = mhla.Extend(sr.Assignment); return err }); err != nil {
		return nil, err
	}

	// The Original and MHLA points are evaluated inside the server's
	// search; the MHLA+TE and Ideal points after it.
	var orig, mhlaCost, teCost, ideal mhla.Cost
	err = step("eval.evaluate", false, func() error {
		base := sr.Assignment.Clone()
		for name := range base.ArrayHome {
			base.ArrayHome[name] = plat.Background()
		}
		clear(base.Chains)
		clear(base.Extras)
		orig = base.Evaluate(mhla.EvalOptions{})
		mhlaCost = sr.Assignment.Evaluate(mhla.EvalOptions{})
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = step("eval.evaluate", true, func() error {
		teCost = mhlaCost
		if plan.Applicable {
			teCost = plan.Assignment.Evaluate(mhla.EvalOptions{Hidden: plan.Hidden()})
		}
		ideal = sr.Assignment.Evaluate(mhla.EvalOptions{Ideal: true})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if orig.Cycles != sr.Baseline.Cycles || orig.Energy != sr.Baseline.Energy ||
		mhlaCost.Cycles != sr.Cost.Cycles || mhlaCost.Energy != sr.Cost.Energy {
		return nil, errors.New("re-evaluated Original or MHLA point differs from the search's")
	}
	res := &mhla.Result{
		Program: ws.Program, Platform: plat, Analysis: ws.Analysis,
		Assignment: sr.Assignment, Plan: plan,
		Original: sr.Baseline, MHLA: sr.Cost, TE: teCost, Ideal: ideal,
		SearchStates: sr.States, Engine: sr.Engine, Portfolio: sr.Portfolio,
	}
	var body []byte
	err = step("encode", true, func() (err error) { body, err = mhla.ResultJSON(res); return err })
	return body, err
}
