package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"mhla/internal/apps"
	"mhla/pkg/mhla"
)

// statusClientClosed is the nginx-convention status for a client that
// disconnected before the response was written. Nothing reads it — the
// connection is gone — but access logs stay honest.
const statusClientClosed = 499

// maxWorkersParam bounds every worker-count request parameter. The
// engines clamp workers to the available work, but a hostile count
// must never translate into goroutine or state allocations.
const maxWorkersParam = 64

// maxDeadlineMS bounds the deadline_ms request parameter: the anytime
// engines honor it as a wall-clock budget, and an unbounded value
// would let one request hold a worker slot indefinitely.
const maxDeadlineMS = 60_000

// maxSweepSizes bounds the sizes of one sweep request.
const maxSweepSizes = 64

// maxBatchApps bounds the applications of one batch request.
const maxBatchApps = 32

// maxBatchObjectives bounds the objectives of one batch request (only
// three distinct objectives exist; anything longer is grid-inflation
// abuse).
const maxBatchObjectives = 3

// maxBatchJobs bounds the expanded apps x sizes x objectives grid of
// one batch request: one slot of the in-flight semaphore may carry at
// most this many flow runs.
const maxBatchJobs = 512

// errorBody is the typed error envelope of every non-2xx response:
//
//	{"error": {"code": "invalid_program", "message": "..."}}
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// apiError is a request failure on its way to the wire.
type apiError struct {
	status int
	code   string
	msg    string
	// retryAfter, when positive, is sent as a Retry-After header (in
	// seconds) — the load-shedding paths set it so well-behaved clients
	// back off instead of hammering a full intake pool.
	retryAfter int
}

func badRequest(code, format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: code, msg: fmt.Sprintf(format, args...)}
}

// Error makes apiError a plain error too, so the async job runner can
// carry one through the jobs package's error slot and recover the
// typed envelope on the other side.
func (e *apiError) Error() string { return fmt.Sprintf("%s: %s", e.code, e.msg) }

// responseWriteTimeout bounds writing one response: a client that
// stops reading has the write fail at the deadline — freeing the
// handler's compute slot and keeping graceful shutdown within its
// budget — instead of pinning both forever. Every response write sets
// a fresh deadline, so keep-alive connections with long gaps between
// requests are unaffected.
const responseWriteTimeout = 30 * time.Second

// armWriteDeadline applies the per-response write deadline
// (best-effort — httptest recorders don't support deadlines).
func armWriteDeadline(w http.ResponseWriter) {
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(responseWriteTimeout))
}

func (e *apiError) write(w http.ResponseWriter) {
	body, err := json.MarshalIndent(errorBody{Error: errorDetail{Code: e.code, Message: e.msg}}, "", "  ")
	if err != nil {
		// Marshalling two strings cannot fail; keep the typed contract
		// anyway.
		body = []byte(`{"error":{"code":"internal","message":"error encoding failed"}}`)
	}
	armWriteDeadline(w)
	w.Header().Set("Content-Type", "application/json")
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	w.WriteHeader(e.status)
	w.Write(body)
}

// writeJSON writes a 200 response with exactly the given body bytes.
// The compute endpoints pass the facade encoders' output through
// untouched — that is the byte-identity guarantee.
func writeJSON(w http.ResponseWriter, body []byte) {
	armWriteDeadline(w)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// bodyReadTimeout bounds reading one request body: a client
// trickling bytes has its read fail at the deadline (and its intake
// slot freed) instead of pinning the slot forever. Long computes are
// unaffected — the deadline is cleared again once the body is read.
const bodyReadTimeout = 30 * time.Second

// decodeRequest strictly decodes one JSON request object: bounded
// body, read deadline, unknown fields rejected, trailing data
// rejected.
func decodeRequest(w http.ResponseWriter, r *http.Request, maxBytes int64, dst any) *apiError {
	// Best-effort (httptest recorders don't support deadlines): bound
	// the body read, then clear the deadline so neither the compute
	// phase nor the next keep-alive request inherits it.
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Now().Add(bodyReadTimeout))
	defer rc.SetReadDeadline(time.Time{})
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &apiError{status: http.StatusRequestEntityTooLarge, code: "too_large",
				msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
		}
		return badRequest("bad_request", "malformed request: %v", err)
	}
	if dec.More() {
		return badRequest("bad_request", "trailing data after request object")
	}
	return nil
}

// decodeStrictBytes strictly decodes one JSON object from in-memory
// bytes: unknown fields rejected, trailing data rejected. It is
// decodeRequest for payloads already read off the wire — the nested
// request object of a job submission.
func decodeStrictBytes(data []byte, dst any) *apiError {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("bad_request", "malformed request: %v", err)
	}
	if dec.More() {
		return badRequest("bad_request", "trailing data after request object")
	}
	return nil
}

// isExactEngine reports whether the requested engine name resolves to
// an engine that honors Workers (the parallel exact engines; the
// default greedy engine ignores it). Unknown names report false —
// they are rejected by options() anyway.
func isExactEngine(engine string) bool {
	e, err := mhla.ParseEngine(engine)
	return err == nil && e.UsesWorkers()
}

// searchParams are the flow knobs shared by the compute endpoints,
// mirroring the facade options in snake_case.
type searchParams struct {
	Engine       string `json:"engine,omitempty"`
	Objective    string `json:"objective,omitempty"`
	Policy       string `json:"policy,omitempty"`
	Workers      int    `json:"workers,omitempty"`
	MaxStates    int    `json:"max_states,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	DeadlineMS   int64  `json:"deadline_ms,omitempty"`
	DisableTE    bool   `json:"disable_te,omitempty"`
	NoInPlace    bool   `json:"no_in_place,omitempty"`
	AbsoluteGain bool   `json:"absolute_gain,omitempty"`
}

// options maps the wire knobs onto facade options. maxStates is the
// server's guardrail cap for exact-engine state budgets.
func (p searchParams) options(maxStates int) ([]mhla.Option, *apiError) {
	var opts []mhla.Option
	if p.Engine != "" {
		e, err := mhla.ParseEngine(p.Engine)
		if err != nil {
			return nil, badRequest("invalid_option", "%v", err)
		}
		opts = append(opts, mhla.WithEngine(e))
	}
	if p.Objective != "" {
		o, err := mhla.ParseObjective(p.Objective)
		if err != nil {
			return nil, badRequest("invalid_option", "%v", err)
		}
		opts = append(opts, mhla.WithObjective(o))
	}
	if p.Policy != "" {
		pol, err := mhla.ParsePolicy(p.Policy)
		if err != nil {
			return nil, badRequest("invalid_option", "%v", err)
		}
		opts = append(opts, mhla.WithPolicy(pol))
	}
	if p.Workers < 0 || p.Workers > maxWorkersParam {
		return nil, badRequest("invalid_option", "workers %d out of range [0, %d]", p.Workers, maxWorkersParam)
	}
	if p.Workers > 0 {
		opts = append(opts, mhla.WithWorkers(p.Workers))
	}
	if p.MaxStates < 0 || p.MaxStates > maxStates {
		return nil, badRequest("invalid_option", "max_states %d out of range [0, %d]", p.MaxStates, maxStates)
	}
	if p.Seed != 0 {
		opts = append(opts, mhla.WithSeed(p.Seed))
	}
	if p.DeadlineMS < 0 || p.DeadlineMS > maxDeadlineMS {
		return nil, badRequest("invalid_option", "deadline_ms %d out of range [0, %d]", p.DeadlineMS, maxDeadlineMS)
	}
	if p.DeadlineMS > 0 {
		opts = append(opts, mhla.WithDeadline(time.Duration(p.DeadlineMS)*time.Millisecond))
	}
	if p.MaxStates > 0 {
		opts = append(opts, mhla.WithMaxStates(p.MaxStates))
	} else {
		// The facade default (500k states per subtree task) is itself a
		// guardrail; enforce the server cap only when it is tighter.
		if maxStates < 500_000 {
			opts = append(opts, mhla.WithMaxStates(maxStates))
		}
	}
	if p.DisableTE {
		opts = append(opts, mhla.WithoutTE())
	}
	if p.NoInPlace {
		opts = append(opts, mhla.WithoutInPlace())
	}
	if p.AbsoluteGain {
		opts = append(opts, mhla.WithAbsoluteGain())
	}
	return opts, nil
}

// programRef selects the program of a compute request: exactly one of
// a catalog application name (with optional scale) or an inline
// interchange-format program.
type programRef struct {
	App     string          `json:"app,omitempty"`
	Scale   string          `json:"scale,omitempty"`
	Program json.RawMessage `json:"program,omitempty"`
}

// scaleName validates the scale field and returns its normalized name
// ("" means paper).
func (ref programRef) scaleName() (string, *apiError) {
	switch ref.Scale {
	case "", "paper":
		return "paper", nil
	case "test":
		return "test", nil
	default:
		return "", badRequest("bad_request", "unknown scale %q (want paper or test)", ref.Scale)
	}
}

// resolve builds the referenced program.
func (ref programRef) resolve() (*mhla.Program, *apiError) {
	switch {
	case ref.App != "" && len(ref.Program) > 0:
		return nil, badRequest("bad_request", "exactly one of app and program must be set")
	case ref.App != "":
		name, apiErr := ref.scaleName()
		if apiErr != nil {
			return nil, apiErr
		}
		scale := apps.Paper
		if name == "test" {
			scale = apps.Test
		}
		app, err := apps.ByName(ref.App)
		if err != nil {
			return nil, &apiError{status: http.StatusNotFound, code: "unknown_app", msg: err.Error()}
		}
		return app.Build(scale), nil
	case len(ref.Program) > 0:
		if ref.Scale != "" {
			return nil, badRequest("bad_request", "scale applies to catalog apps, not inline programs")
		}
		prog, err := mhla.DecodeProgram(ref.Program)
		if err != nil {
			return nil, badRequest("invalid_program", "%v", err)
		}
		return prog, nil
	default:
		return nil, badRequest("bad_request", "one of app and program must be set")
	}
}

// platformRef selects the platform of a run or simulate request.
type platformRef struct {
	// Platform is a full interchange-format platform; mutually
	// exclusive with L1Bytes. Neither means the default two-level
	// platform.
	Platform json.RawMessage `json:"platform,omitempty"`
	L1Bytes  int64           `json:"l1_bytes,omitempty"`
}

// platform resolves the platform selection to a concrete platform.
func (ref platformRef) platform() (*mhla.Platform, *apiError) {
	if len(ref.Platform) > 0 && ref.L1Bytes != 0 {
		return nil, badRequest("bad_request", "at most one of platform and l1_bytes may be set")
	}
	if len(ref.Platform) > 0 {
		plat, err := mhla.DecodePlatform(ref.Platform)
		if err != nil {
			return nil, badRequest("invalid_platform", "%v", err)
		}
		return plat, nil
	}
	if ref.L1Bytes != 0 {
		if ref.L1Bytes < 0 {
			return nil, badRequest("invalid_option", "l1_bytes %d must be positive", ref.L1Bytes)
		}
		return mhla.TwoLevel(ref.L1Bytes), nil
	}
	return mhla.TwoLevel(mhla.DefaultL1), nil
}

// runRequest is the POST /v1/run body.
type runRequest struct {
	programRef
	platformRef
	searchParams
}

// sweepRequest is the POST /v1/sweep body. The sweep constructs the
// standard two-level platform per size, so there is no platform field.
type sweepRequest struct {
	programRef
	// Sizes are the L1 capacities to sweep; empty means the standard
	// 256 B .. 64 KiB half-power-of-two ladder. Duplicates are
	// rejected.
	Sizes []int64 `json:"sizes,omitempty"`
	// SweepWorkers bounds concurrently evaluated sweep points.
	SweepWorkers int `json:"sweep_workers,omitempty"`
	searchParams
}

func (req *sweepRequest) validateSizes() *apiError {
	if len(req.Sizes) > maxSweepSizes {
		return badRequest("bad_request", "%d sweep sizes exceed the limit of %d", len(req.Sizes), maxSweepSizes)
	}
	seen := make(map[int64]bool, len(req.Sizes))
	for _, s := range req.Sizes {
		if s <= 0 {
			return badRequest("invalid_option", "sweep size %d must be positive", s)
		}
		// Duplicates would evaluate one point twice and, on the
		// warm-started branch-and-bound chain, silently skew the
		// reported sweep; reject instead of deduplicating.
		if seen[s] {
			return badRequest("invalid_option", "duplicate sweep size %d", s)
		}
		seen[s] = true
	}
	if req.SweepWorkers < 0 || req.SweepWorkers > maxWorkersParam {
		return badRequest("invalid_option", "sweep_workers %d out of range [0, %d]", req.SweepWorkers, maxWorkersParam)
	}
	// Nested pools multiply: sweep points each run a search with its
	// own engine workers. Bound the explicit product so one request
	// cannot ask for more parallelism than a whole slot is worth.
	if req.Workers > 0 && req.SweepWorkers > 0 && req.Workers*req.SweepWorkers > maxWorkersParam {
		return badRequest("invalid_option", "workers x sweep_workers = %d exceeds the limit of %d",
			req.Workers*req.SweepWorkers, maxWorkersParam)
	}
	return nil
}

// batchRequest is the POST /v1/batch body: a catalog-app x L1-size x
// objective Explorer grid.
type batchRequest struct {
	// Apps are catalog application names.
	Apps []string `json:"apps"`
	// Scale selects paper (default) or test builds.
	Scale string `json:"scale,omitempty"`
	// L1Sizes are the on-chip capacities; empty means the standard
	// sweep sizes.
	L1Sizes []int64 `json:"l1_sizes,omitempty"`
	// Objectives are the search objectives; empty means energy.
	Objectives []string `json:"objectives,omitempty"`
	// BatchWorkers bounds the Explorer worker pool.
	BatchWorkers int `json:"batch_workers,omitempty"`
	searchParams
}

// validate applies the batch intake rules (the batch counterpart of
// sweepRequest.validateSizes): field exclusivity, count and size
// limits, the nested worker-product cap and the expanded-grid bound.
func (req *batchRequest) validate() *apiError {
	if req.Objective != "" {
		return badRequest("bad_request", "batch requests use objectives, not objective")
	}
	if len(req.Apps) == 0 {
		return badRequest("bad_request", "apps must name at least one catalog application")
	}
	if len(req.Apps) > maxBatchApps {
		return badRequest("bad_request", "%d apps exceed the limit of %d", len(req.Apps), maxBatchApps)
	}
	if len(req.L1Sizes) > maxSweepSizes {
		return badRequest("bad_request", "%d l1_sizes exceed the limit of %d", len(req.L1Sizes), maxSweepSizes)
	}
	for _, size := range req.L1Sizes {
		if size <= 0 {
			return badRequest("invalid_option", "l1 size %d must be positive", size)
		}
	}
	if len(req.Objectives) > maxBatchObjectives {
		return badRequest("bad_request", "%d objectives exceed the limit of %d", len(req.Objectives), maxBatchObjectives)
	}
	if req.BatchWorkers < 0 || req.BatchWorkers > maxWorkersParam {
		return badRequest("invalid_option", "batch_workers %d out of range [0, %d]", req.BatchWorkers, maxWorkersParam)
	}
	if req.Workers > 0 && req.BatchWorkers > 0 && req.Workers*req.BatchWorkers > maxWorkersParam {
		return badRequest("invalid_option", "workers x batch_workers = %d exceeds the limit of %d",
			req.Workers*req.BatchWorkers, maxWorkersParam)
	}
	// Bound the expanded grid: one slot may carry at most maxBatchJobs
	// flow runs (empty sizes/objectives fall back to the 17 standard
	// sweep sizes / 1 objective in Grid.Jobs).
	sizeCount, objCount := len(req.L1Sizes), len(req.Objectives)
	if sizeCount == 0 {
		sizeCount = len(mhla.DefaultSweepSizes())
	}
	if objCount == 0 {
		objCount = 1
	}
	if jobs := len(req.Apps) * sizeCount * objCount; jobs > maxBatchJobs {
		return badRequest("bad_request", "batch grid expands to %d jobs, exceeding the limit of %d",
			jobs, maxBatchJobs)
	}
	return nil
}

// batchJobJSON is one job of a batch response; exactly one of result
// and error is set.
type batchJobJSON struct {
	Label  string          `json:"label"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

type batchResponse struct {
	Jobs []batchJobJSON `json:"jobs"`
}

// appJSON is one catalog entry of the GET /v1/apps response.
type appJSON struct {
	Name        string `json:"name"`
	Domain      string `json:"domain"`
	Description string `json:"description"`
	L1Bytes     int64  `json:"l1_bytes"`
}

// healthJSON is the GET /healthz response.
type healthJSON struct {
	Status string `json:"status"`
	Stats
}
