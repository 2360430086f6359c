// Package server is the HTTP serving layer of the MHLA flow: a
// long-lived JSON service over the compile-once analysis workspace of
// internal/workspace, exposing the whole tool as endpoints.
//
//	POST /v1/run      — the four operating points of one program+platform
//	POST /v1/sweep    — the concurrent L1 trade-off sweep
//	POST /v1/batch    — an Explorer grid over catalog applications
//	POST /v1/simulate — the trace-driven cache+prefetch simulator backend
//	GET  /v1/apps     — the benchmark application catalog
//	GET  /healthz     — liveness plus cache, in-flight, job and per-endpoint statistics
//
// The same compute requests also run asynchronously through the
// /v1/jobs family backed by internal/jobs (a bounded worker pool over
// a tenant-fair priority queue):
//
//	POST   /v1/jobs             — submit {"kind","request","priority"}, get a job ID (202)
//	GET    /v1/jobs/{id}        — status envelope: state, queue position, progress
//	GET    /v1/jobs/{id}/result — the stored result bytes, identical to the sync response
//	GET    /v1/jobs/{id}/events — NDJSON stream of envelope transitions
//	DELETE /v1/jobs/{id}        — cancel (queued or running)
//
// Sync handlers and job workers share one parse/execute path (the
// work interface), so an async result is byte-for-byte the sync
// response — enforced by the jobs differential test.
//
// The core is a bounded LRU cache of compiled workspaces keyed by the
// canonical program digest (modelio.ProgramDigest): N concurrent
// requests for the same program compile it exactly once (singleflight)
// and every later request reuses the analysis, so a hot serving loop
// pays the program-side work once, not per request. The service is a
// transport, never a second implementation — every compute response is
// byte-identical to the corresponding direct pkg/mhla facade call
// (mhla.Run + mhla.ResultJSON, mhla.SweepL1 + Sweep.JSON), which the
// differential test battery enforces.
//
// Requests are bounded: a configurable in-flight semaphore, strict
// JSON decoding with body-size caps, server-side limits on worker
// counts and state budgets, and per-request context threading — a
// client disconnect or server timeout aborts even a long
// branch-and-bound search promptly and frees the slot.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mhla/internal/apps"
	"mhla/internal/jobs"
	"mhla/internal/persist"
	"mhla/pkg/mhla"
)

// Config configures a Server. The zero value is production-ready:
// 64 cached workspaces, 4x GOMAXPROCS in-flight requests, 8 MiB
// bodies, a 10M state-budget cap and no request timeout.
type Config struct {
	// CacheEntries bounds the compiled-workspace LRU (default 64,
	// minimum 1).
	CacheEntries int
	// MaxInFlight bounds the compute requests (run, sweep, batch)
	// executing concurrently; further requests wait for a slot
	// (default 4x GOMAXPROCS). Note that /v1/run keeps the facade's
	// engine default (exact engines fan over GOMAXPROCS workers) —
	// run is the latency path, so a slot there can be a whole host's
	// worth of compute; size MaxInFlight down (toward GOMAXPROCS) on
	// deployments dominated by exact-engine run traffic.
	MaxInFlight int
	// RequestTimeout bounds each compute request end to end; 0 means
	// no server-side deadline (client disconnects still cancel).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxStates caps the max_states a request may ask for — the
	// serving guardrail that keeps one hostile request from pinning a
	// worker on an astronomical exact search (default 10M).
	MaxStates int
	// Progress, when non-nil, observes the flow progress of every
	// compute request (phase entries plus engine snapshots). Requests
	// run concurrently, so the callback must be safe for concurrent
	// use.
	Progress mhla.ProgressFunc
	// OnCompile, when non-nil, runs once per workspace compilation
	// with the program's digest — the metrics (and test) hook that
	// observes the compiled-exactly-once guarantee.
	OnCompile func(digest string)
	// JobWorkers bounds the async jobs executing concurrently (default
	// 2). The job pool is separate from the synchronous in-flight
	// semaphore: async work is throughput-shaped and must not be able
	// to occupy every latency-path slot.
	JobWorkers int
	// JobBacklog bounds the queued (not yet running) async jobs;
	// submissions into a full backlog are shed with 429 + Retry-After
	// (default 256).
	JobBacklog int
	// JobResultTTL bounds how long a finished job (and its result)
	// stays fetchable (default 15 minutes).
	JobResultTTL time.Duration
	// SnapshotDir, when set, enables crash-safety persistence: the
	// workspace-cache key set is periodically snapshotted there (and
	// rewarmed in the background on boot) and async job submissions and
	// transitions are journaled, so a restart requeues the backlog
	// instead of losing it. Empty means memory-only (the default).
	SnapshotDir string
	// SnapshotInterval is the snapshot flush cadence (default 10s).
	SnapshotInterval time.Duration
	// RetryMaxAttempts caps total executions of a job interrupted by
	// crashes (default 3); RetryBaseDelay and RetryMaxDelay shape the
	// jittered exponential backoff before each re-execution (defaults
	// 500ms and 30s).
	RetryMaxAttempts int
	RetryBaseDelay   time.Duration
	RetryMaxDelay    time.Duration
	// PersistFS and PersistClock are the persistence seams (default the
	// real filesystem and clock); tests and the chaos suite inject
	// in-memory, faulty and manually advanced implementations.
	PersistFS    persist.FS
	PersistClock persist.Clock
}

func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 64
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 10_000_000
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 10 * time.Second
	}
	return c
}

// Stats is a point-in-time snapshot of the server counters.
type Stats struct {
	// Cache are the compiled-workspace cache counters.
	Cache CacheStats `json:"cache"`
	// InFlight is the number of compute requests currently holding a
	// slot.
	InFlight int64 `json:"in_flight"`
	// Requests counts requests accepted across all endpoints.
	Requests int64 `json:"requests_total"`
	// Jobs are the async job-layer counters.
	Jobs jobs.Stats `json:"jobs"`
	// Persist are the crash-safety layer counters (Enabled false when
	// no snapshot directory is configured).
	Persist PersistStats `json:"persist"`
	// Endpoints breaks the request and error counts down per endpoint
	// (errors are responses with a 4xx/5xx status).
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

// EndpointStats are the per-endpoint counters of Stats.
type EndpointStats struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
}

// endpointCounter is the live (atomic) form of EndpointStats.
type endpointCounter struct {
	requests atomic.Int64
	errors   atomic.Int64
}

// Server is the HTTP serving layer. Create one with New; it is safe
// for concurrent use by any number of requests.
type Server struct {
	cfg   Config
	cache *wsCache
	sem   chan struct{}
	// intake bounds the requests concurrently in their decode +
	// validate + digest stage (before a compute slot is taken), so a
	// flood of large inline-program bodies cannot drive unbounded
	// decode/hash work and memory either. Sized at 4x the compute
	// slots: wide enough that intake never starves the compute
	// semaphore, narrow enough to cap the pre-slot footprint.
	intake   chan struct{}
	inFlight atomic.Int64
	requests atomic.Int64
	// jobs is the async execution layer behind the /v1/jobs family: a
	// bounded worker pool fed by a tenant-fair priority queue.
	jobs *jobs.Manager
	// persist is the crash-safety layer (nil when no snapshot
	// directory is configured).
	persist *persister
	// computeRate and jobRate observe recent compute-request and async
	// job completions, feeding the dynamic Retry-After hints on the
	// load-shedding paths.
	computeRate rateTracker
	jobRate     rateTracker
	// endpoints maps endpoint name to its counters; the map is fixed at
	// New (only values mutate), so reads need no lock.
	endpoints map[string]*endpointCounter
	mux       *http.ServeMux

	// catMu guards catalog, the lazily built (app, scale) -> built
	// program + canonical digest memo. The catalog is a small fixed
	// set, so warm app-mode requests skip the per-request program
	// rebuild, re-encode and hash on the hot path (inline programs
	// still digest per request — their bytes are the request).
	catMu   sync.Mutex
	catalog map[string]catalogProgram
}

// catalogProgram is one memoized catalog build.
type catalogProgram struct {
	prog   *mhla.Program
	digest string
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		cache:  newWSCache(cfg.CacheEntries, cfg.OnCompile),
		sem:    make(chan struct{}, cfg.MaxInFlight),
		intake: make(chan struct{}, 4*cfg.MaxInFlight),
		mux:    http.NewServeMux(),

		endpoints: make(map[string]*endpointCounter),
		catalog:   make(map[string]catalogProgram),
	}
	// Recovery order matters: the persister reads + replays + compacts
	// the journal first (no job manager needed, only buildWork), the
	// manager is then created with the journaling observer installed,
	// and finally the recovered jobs are restored into it (silently —
	// the compacted journal already carries them) and the background
	// rewarm + flush loops start. The server is ready to serve from the
	// first instant; rewarm fills the cache behind it.
	s.persist = newPersister(s, cfg)
	s.jobs = jobs.New(jobs.Config{
		Workers:   cfg.JobWorkers,
		Backlog:   cfg.JobBacklog,
		ResultTTL: cfg.JobResultTTL,
		Observer:  s.observeJob,
	})
	if s.persist != nil {
		s.persist.restoreJobs()
		s.persist.start(cfg.SnapshotInterval)
	}
	s.mux.HandleFunc("/healthz", s.count("/healthz", s.handleHealthz))
	s.mux.HandleFunc("/v1/apps", s.count("/v1/apps", s.handleApps))
	for _, k := range computeKinds {
		route := "/v1/" + k.name
		s.mux.HandleFunc(route, s.count(route, s.serveCompute(k.newRequest)))
	}
	s.mux.HandleFunc("/v1/jobs", s.count("/v1/jobs", s.handleJobSubmit))
	s.mux.HandleFunc("/v1/jobs/{id}", s.count("/v1/jobs/{id}", s.handleJob))
	s.mux.HandleFunc("/v1/jobs/{id}/result", s.count("/v1/jobs/{id}/result", s.handleJobResult))
	s.mux.HandleFunc("/v1/jobs/{id}/events", s.count("/v1/jobs/{id}/events", s.handleJobEvents))
	s.mux.HandleFunc("/", s.count("other", func(w http.ResponseWriter, r *http.Request) {
		(&apiError{status: http.StatusNotFound, code: "not_found",
			msg: "unknown endpoint " + r.URL.Path}).write(w)
	}))
	return s
}

// Handler returns the HTTP handler; mount it on an http.Server (or an
// httptest.Server in tests).
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the server gracefully: the async job layer first
// (queued jobs are canceled silently — their journal records survive,
// so a restart requeues them), then the persistence layer (final
// snapshot flush, journal closed). Call it after the HTTP server has
// shut down.
func (s *Server) Close() {
	s.jobs.Close()
	if s.persist != nil {
		s.persist.close()
	}
}

// Abort simulates a crash (SIGKILL) for tests and the kill-restart
// load generator: persistence stops instantly with no final flush and
// no journal records for the dying jobs, then the job layer is torn
// down — exactly the state a real kill leaves on disk.
func (s *Server) Abort() {
	if s.persist != nil {
		s.persist.abort()
	}
	s.jobs.Close()
}

// observeJob is the jobs.Manager observer: it feeds the job drain
// rate (for dynamic Retry-After) and journals every client-visible
// transition when persistence is on. Runs under the manager lock.
func (s *Server) observeJob(e jobs.Event) {
	switch e.Op {
	case jobs.EventDone, jobs.EventFailed, jobs.EventCanceled:
		s.jobRate.note(time.Now())
	}
	if s.persist != nil {
		s.persist.observe(e)
	}
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Cache:     s.cache.stats(),
		InFlight:  s.inFlight.Load(),
		Requests:  s.requests.Load(),
		Jobs:      s.jobs.Stats(),
		Endpoints: make(map[string]EndpointStats, len(s.endpoints)),
	}
	if s.persist != nil {
		st.Persist = s.persist.snapshot()
	}
	for name, c := range s.endpoints {
		st.Endpoints[name] = EndpointStats{Requests: c.requests.Load(), Errors: c.errors.Load()}
	}
	return st
}

// statusWriter captures the response status so the endpoint counters
// can tell successes from errors. Unwrap keeps the
// http.ResponseController deadline plumbing working through the
// wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// count wraps a handler with the global and per-endpoint request and
// error accounting. The counter is created here, at route-registration
// time, so the endpoints map is immutable once New returns.
func (s *Server) count(name string, h http.HandlerFunc) http.HandlerFunc {
	c := s.endpoints[name]
	if c == nil {
		c = &endpointCounter{}
		s.endpoints[name] = c
	}
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		c.requests.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				// http.ErrAbortHandler is the sanctioned way to abort a
				// response; re-panic so net/http applies its contract.
				if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
					panic(rec)
				}
				// Any other panic must still produce a typed response and
				// hit the error accounting — unwinding into net/http would
				// kill the connection with no response and no counter
				// update, and the flow's own recovery ends here.
				log.Printf("server: panic in %s handler: %v\n%s", name, rec, debug.Stack())
				if sw.status == 0 {
					(&apiError{status: http.StatusInternalServerError, code: "internal",
						msg: "internal error handling the request"}).write(sw)
				}
				c.errors.Add(1)
				return
			}
			if sw.status >= 400 {
				c.errors.Add(1)
			}
		}()
		h(sw, r)
	}
}

// requireMethod writes a typed 405 when the method does not match.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		(&apiError{status: http.StatusMethodNotAllowed, code: "method_not_allowed",
			msg: r.Method + " not allowed; use " + method}).write(w)
		return false
	}
	return true
}

// slotWaitError maps a context error on a slot wait to the typed wire
// form: deadline expiry is overload (503), anything else means the
// client went away (499).
func slotWaitError(err error, what string) *apiError {
	if errors.Is(err, context.DeadlineExceeded) {
		return &apiError{status: http.StatusServiceUnavailable, code: "overloaded",
			msg: "timed out waiting for " + what}
	}
	return &apiError{status: statusClientClosed, code: "canceled",
		msg: "client went away while waiting for " + what}
}

// acquire takes an in-flight slot, waiting until one frees up or the
// request dies. The returned release is idempotent (a second call is a
// no-op) and must run at least once.
func (s *Server) acquire(ctx context.Context) (release func(), apiErr *apiError) {
	select {
	case s.sem <- struct{}{}:
		// select chooses uniformly when a slot and ctx.Done() are both
		// ready, so winning the slot does not mean the request is alive —
		// re-check before handing compute to a dead request.
		if err := ctx.Err(); err != nil {
			<-s.sem
			return nil, slotWaitError(err, "an in-flight slot")
		}
		s.inFlight.Add(1)
		var once sync.Once
		return func() {
			once.Do(func() {
				s.inFlight.Add(-1)
				<-s.sem
			})
		}, nil
	case <-ctx.Done():
		return nil, slotWaitError(ctx.Err(), "an in-flight slot")
	}
}

// intakeWaitMax bounds the wait for an intake slot: legitimate
// decode stages take microseconds, so a full intake pool for longer
// than this means slow-body abuse or overload — shed load with a 503
// instead of hanging new requests behind it.
const intakeWaitMax = time.Second

// acquireIntake takes an intake slot for the decode/validate/digest
// stage, waiting at most intakeWaitMax. The returned release is
// idempotent: handlers release explicitly once the cheap stage is
// done (before blocking on a compute slot, so queued compute never
// starves intake) and also defer it for the error paths.
func (s *Server) acquireIntake(ctx context.Context) (release func(), apiErr *apiError) {
	idempotent := func() func() {
		var once sync.Once
		return func() { once.Do(func() { <-s.intake }) }
	}
	// The fast path's default branch never consults ctx, and both
	// selects choose uniformly when a slot and ctx.Done() are ready at
	// once — either way a dead request could win a slot. Check up
	// front and re-check after every win.
	if err := ctx.Err(); err != nil {
		return nil, slotWaitError(err, "an intake slot")
	}
	select {
	case s.intake <- struct{}{}:
		return idempotent(), nil
	default:
	}
	timer := time.NewTimer(intakeWaitMax)
	defer timer.Stop()
	select {
	case s.intake <- struct{}{}:
		if err := ctx.Err(); err != nil {
			<-s.intake
			return nil, slotWaitError(err, "an intake slot")
		}
		return idempotent(), nil
	case <-timer.C:
		// Deliberate load shedding (as opposed to the request dying):
		// 429 with a Retry-After derived from the backlog depth and the
		// recently observed completion rate, so well-behaved clients
		// back off long enough for the queue ahead of them to actually
		// drain instead of re-queueing behind the same full pool.
		pending := len(s.intake) + int(s.inFlight.Load())
		hint := retryAfterSeconds(pending, s.computeRate.perSec(time.Now()), float64(s.cfg.MaxInFlight))
		return nil, &apiError{status: http.StatusTooManyRequests, code: "overloaded",
			msg: "intake full: timed out waiting for an intake slot", retryAfter: hint}
	case <-ctx.Done():
		return nil, slotWaitError(ctx.Err(), "an intake slot")
	}
}

// computeCtx applies the server-side request timeout.
func (s *Server) computeCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

// resolveProgram builds the referenced program and its canonical
// digest: catalog apps through the per-(app, scale) memo, inline
// programs through decode + digest.
func (s *Server) resolveProgram(ref programRef) (*mhla.Program, string, *apiError) {
	if ref.App == "" || len(ref.Program) > 0 {
		// Inline path — or an invalid combination, which resolve
		// reports.
		return resolveFresh(ref)
	}
	scale, apiErr := ref.scaleName()
	if apiErr != nil {
		return nil, "", apiErr
	}
	// Memo first: warm app-mode requests skip the program rebuild as
	// well as the re-encode + hash.
	key := ref.App + "/" + scale
	s.catMu.Lock()
	memo, ok := s.catalog[key]
	s.catMu.Unlock()
	if ok {
		return memo.prog, memo.digest, nil
	}
	prog, digest, apiErr := resolveFresh(ref)
	if apiErr != nil {
		return nil, "", apiErr
	}
	s.catMu.Lock()
	// First store wins, so every request of an (app, scale) pair
	// shares one program value (and thus one workspace identity).
	if memo, ok := s.catalog[key]; ok {
		s.catMu.Unlock()
		return memo.prog, memo.digest, nil
	}
	s.catalog[key] = catalogProgram{prog: prog, digest: digest}
	s.catMu.Unlock()
	return prog, digest, nil
}

// resolveFresh builds the referenced program and digests it, without
// the memo.
func resolveFresh(ref programRef) (*mhla.Program, string, *apiError) {
	prog, apiErr := ref.resolve()
	if apiErr != nil {
		return nil, "", apiErr
	}
	digest, err := mhla.ProgramDigest(prog)
	if err != nil {
		return nil, "", badRequest("invalid_program", "%v", err)
	}
	return prog, digest, nil
}

// workspaceFor returns the compiled workspace of the program through
// the LRU cache: canonical digest as key, singleflight compile on
// miss.
func (s *Server) workspaceFor(prog *mhla.Program, digest string) (*mhla.Workspace, *apiError) {
	ws, err := s.cache.get(digest, func() (*mhla.Workspace, error) {
		return mhla.Compile(prog)
	})
	if err != nil {
		// The program passed decode validation, so a compile failure is
		// input-derived (the analysis rejected it) — a client error.
		return nil, badRequest("invalid_program", "%v", err)
	}
	if s.persist != nil {
		// Record the warm key so the next process lifetime can rewarm it.
		s.persist.touch(digest, prog)
	}
	return ws, nil
}

// mapRunError translates a facade error into the typed wire form.
func mapRunError(err error) *apiError {
	var optErr *mhla.OptionError
	switch {
	case errors.As(err, &optErr):
		return badRequest("invalid_option", "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{status: http.StatusGatewayTimeout, code: "timeout",
			msg: "request timed out mid-flow"}
	case errors.Is(err, context.Canceled):
		// Either the client disconnected or the server is draining
		// past its shutdown budget; both cancel the request context.
		return &apiError{status: statusClientClosed, code: "canceled",
			msg: "request canceled mid-flow"}
	default:
		// Unexpected failures keep a fixed wire message: raw internal
		// error strings (package paths, program internals) stay out of
		// untrusted clients' hands.
		return &apiError{status: http.StatusInternalServerError, code: "internal",
			msg: "internal error running the flow"}
	}
}

// serveCompute is the synchronous handler of one compute kind: intake
// slot, strict decode + validate, intake back, compute slot, execute,
// write. The compute slot is taken only once the request is fully read
// and validated, so slow-body or malformed clients never pin a compute
// slot, and the intake slot goes back first — a request queued on
// compute must not starve the fast-reject path of later requests.
func (s *Server) serveCompute(newRequest func() request) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodPost) {
			return
		}
		ctx, cancel := s.computeCtx(r)
		defer cancel()
		releaseIntake, apiErr := s.acquireIntake(ctx)
		if apiErr != nil {
			apiErr.write(w)
			return
		}
		defer releaseIntake()
		req := newRequest()
		if apiErr := decodeRequest(w, r, s.cfg.MaxBodyBytes, req); apiErr != nil {
			apiErr.write(w)
			return
		}
		wk, apiErr := req.work(s)
		if apiErr != nil {
			apiErr.write(w)
			return
		}
		releaseIntake()
		release, apiErr := s.acquire(ctx)
		if apiErr != nil {
			apiErr.write(w)
			return
		}
		defer release()
		body, apiErr := wk.execute(ctx, s, s.cfg.Progress)
		s.computeRate.note(time.Now())
		if apiErr != nil {
			apiErr.write(w)
			return
		}
		writeJSON(w, body)
	}
}

// handleApps serves GET /v1/apps: the benchmark catalog.
func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	catalog := apps.All()
	out := make([]appJSON, 0, len(catalog))
	for _, app := range catalog {
		out = append(out, appJSON{
			Name:        app.Name,
			Domain:      app.Domain,
			Description: app.Description,
			L1Bytes:     app.L1,
		})
	}
	body, err := json.MarshalIndent(struct {
		Apps []appJSON `json:"apps"`
	}{Apps: out}, "", "  ")
	if err != nil {
		(&apiError{status: http.StatusInternalServerError, code: "internal", msg: err.Error()}).write(w)
		return
	}
	writeJSON(w, body)
}

// handleHealthz serves GET /healthz: liveness plus the counters.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	body, err := json.MarshalIndent(healthJSON{Status: "ok", Stats: s.Stats()}, "", "  ")
	if err != nil {
		(&apiError{status: http.StatusInternalServerError, code: "internal", msg: err.Error()}).write(w)
		return
	}
	writeJSON(w, body)
}
