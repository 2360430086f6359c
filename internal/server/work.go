package server

import (
	"context"
	"encoding/json"

	"mhla/pkg/mhla"
)

// work is a validated, program-resolved compute request, ready to run
// on a compute slot (or an async job worker). Building a work value is
// intake-stage: decode, validate, resolve — cheap and bounded. execute
// is the compute stage. The same work value produces byte-identical
// response bodies whether it runs under a synchronous handler or an
// async job, which is what makes the job-mode differential guarantee
// hold by construction: both paths are this one code path.
type work interface {
	// execute runs the compute stage and returns exactly the bytes the
	// synchronous endpoint writes on success. progress, when non-nil,
	// observes the flow (the caller has already chained the server-wide
	// observer and any per-job publisher via mhla.TeeProgress).
	execute(ctx context.Context, s *Server, progress mhla.ProgressFunc) ([]byte, *apiError)
}

// request is a decoded compute request body. work validates it and
// resolves its program into a runnable work value.
type request interface {
	work(s *Server) (work, *apiError)
}

// computeKind is one compute request kind: the job-submission kind
// and, under /v1/<name>, the synchronous route.
type computeKind struct {
	name string
	// newRequest returns an empty request body to decode into.
	newRequest func() request
}

// computeKinds is the one kind -> request table: New registers the
// synchronous routes from it, and buildWork (job submission and
// journal replay) decodes job requests through it, so a kind cannot
// exist on one path and not the other.
var computeKinds = []computeKind{
	// POST /v1/run: the full MHLA+TE flow on one program+platform,
	// answered with mhla.ResultJSON bytes.
	{"run", func() request { return new(runRequest) }},
	// POST /v1/sweep: the concurrent L1 sweep over the cached
	// workspace, answered with Sweep.JSON bytes.
	{"sweep", func() request { return new(sweepRequest) }},
	// POST /v1/batch: an Explorer grid over catalog applications,
	// every distinct program resolved through the workspace cache.
	{"batch", func() request { return new(batchRequest) }},
	// POST /v1/simulate: the trace-driven cache + prefetch simulation
	// of one program+platform, answered with mhla.SimulateJSON bytes.
	{"simulate", func() request { return new(simulateRequest) }},
}

// flowOptions assembles the shared option prefix of a compute call:
// the cached workspace plus the progress observer.
func flowOptions(ws *mhla.Workspace, progress mhla.ProgressFunc) []mhla.Option {
	opts := []mhla.Option{mhla.WithWorkspace(ws)}
	if progress != nil {
		opts = append(opts, mhla.WithProgress(progress))
	}
	return opts
}

// runWork is the validated form of a POST /v1/run body.
type runWork struct {
	prog       *mhla.Program
	digest     string
	plat       *mhla.Platform
	searchOpts []mhla.Option
}

// work validates the request and resolves its program.
func (req *runRequest) work(s *Server) (work, *apiError) {
	searchOpts, apiErr := req.options(s.cfg.MaxStates)
	if apiErr != nil {
		return nil, apiErr
	}
	plat, apiErr := req.platform()
	if apiErr != nil {
		return nil, apiErr
	}
	prog, digest, apiErr := s.resolveProgram(req.programRef)
	if apiErr != nil {
		return nil, apiErr
	}
	return &runWork{prog: prog, digest: digest, plat: plat, searchOpts: searchOpts}, nil
}

func (wk *runWork) execute(ctx context.Context, s *Server, progress mhla.ProgressFunc) ([]byte, *apiError) {
	ws, apiErr := s.workspaceFor(wk.prog, wk.digest)
	if apiErr != nil {
		return nil, apiErr
	}
	opts := append(flowOptions(ws, progress), mhla.WithPlatform(wk.plat))
	opts = append(opts, wk.searchOpts...)
	res, err := mhla.Run(ctx, nil, opts...)
	if err != nil {
		return nil, mapRunError(err)
	}
	body, err := mhla.ResultJSON(res)
	if err != nil {
		return nil, mapRunError(err)
	}
	return body, nil
}

// sweepWork is the validated form of a POST /v1/sweep body.
type sweepWork struct {
	prog         *mhla.Program
	digest       string
	sizes        []int64
	searchOpts   []mhla.Option
	workers      int
	sweepWorkers int
	exact        bool
}

func (req *sweepRequest) work(s *Server) (work, *apiError) {
	if apiErr := req.validateSizes(); apiErr != nil {
		return nil, apiErr
	}
	searchOpts, apiErr := req.options(s.cfg.MaxStates)
	if apiErr != nil {
		return nil, apiErr
	}
	prog, digest, apiErr := s.resolveProgram(req.programRef)
	if apiErr != nil {
		return nil, apiErr
	}
	return &sweepWork{
		prog:         prog,
		digest:       digest,
		sizes:        req.Sizes,
		searchOpts:   searchOpts,
		workers:      req.Workers,
		sweepWorkers: req.SweepWorkers,
		exact:        isExactEngine(req.Engine),
	}, nil
}

func (wk *sweepWork) execute(ctx context.Context, s *Server, progress mhla.ProgressFunc) ([]byte, *apiError) {
	ws, apiErr := s.workspaceFor(wk.prog, wk.digest)
	if apiErr != nil {
		return nil, apiErr
	}
	opts := append(flowOptions(ws, progress), wk.searchOpts...)
	// Nested pools multiply, so inside a sweep the engine worker count
	// defaults to 1 (the sweep pool owns the parallelism), an explicit
	// engine count on a parallel engine turns the sweep sequential,
	// and an explicit pair is product-capped by validateSizes — one
	// request is never more parallelism than a slot's worth. The
	// greedy engine (the default) ignores Workers entirely, so an
	// explicit count there must not cost the sweep its own pool.
	// Results are identical at every worker count, so none of this
	// shapes responses, only scheduling.
	if wk.sweepWorkers > 0 {
		opts = append(opts, mhla.WithSweepWorkers(wk.sweepWorkers))
	}
	if wk.workers == 0 {
		opts = append(opts, mhla.WithWorkers(1))
	} else if wk.sweepWorkers == 0 && wk.exact {
		opts = append(opts, mhla.WithSweepWorkers(1))
	}
	sw, err := mhla.SweepL1(ctx, nil, wk.sizes, opts...)
	if err != nil {
		return nil, mapRunError(err)
	}
	body, err := sw.JSON()
	if err != nil {
		return nil, mapRunError(err)
	}
	return body, nil
}

// batchWork is the validated form of a POST /v1/batch body. Programs
// stay unresolved until execute: batch refers to catalog apps only,
// and resolving them through the per-(app, scale) memo is cheap.
type batchWork struct {
	apps         []string
	scale        string
	l1Sizes      []int64
	objectives   []mhla.Objective
	searchOpts   []mhla.Option
	workers      int
	batchWorkers int
	exact        bool
}

func (req *batchRequest) work(s *Server) (work, *apiError) {
	if apiErr := req.validate(); apiErr != nil {
		return nil, apiErr
	}
	searchOpts, apiErr := req.options(s.cfg.MaxStates)
	if apiErr != nil {
		return nil, apiErr
	}
	var objectives []mhla.Objective
	for _, name := range req.Objectives {
		o, err := mhla.ParseObjective(name)
		if err != nil {
			return nil, badRequest("invalid_option", "%v", err)
		}
		objectives = append(objectives, o)
	}
	// Resolve the app names now so unknown apps are rejected at intake
	// (the typed 404), not when the job runs.
	for _, ref := range req.Apps {
		if _, _, apiErr := s.resolveProgram(programRef{App: ref, Scale: req.Scale}); apiErr != nil {
			return nil, apiErr
		}
	}
	return &batchWork{
		apps:         req.Apps,
		scale:        req.Scale,
		l1Sizes:      req.L1Sizes,
		objectives:   objectives,
		searchOpts:   searchOpts,
		workers:      req.Workers,
		batchWorkers: req.BatchWorkers,
		exact:        isExactEngine(req.Engine),
	}, nil
}

func (wk *batchWork) execute(ctx context.Context, s *Server, progress mhla.ProgressFunc) ([]byte, *apiError) {
	grid := mhla.Grid{
		L1Sizes:    wk.l1Sizes,
		Objectives: wk.objectives,
		Options:    wk.searchOpts,
	}
	// Resolve every app through the workspace cache so repeated batch
	// requests (and concurrent run/sweep requests for the same apps)
	// share one compiled analysis per program.
	workspaces := make(map[*mhla.Program]*mhla.Workspace, len(wk.apps))
	for _, ref := range wk.apps {
		prog, digest, apiErr := s.resolveProgram(programRef{App: ref, Scale: wk.scale})
		if apiErr != nil {
			return nil, apiErr
		}
		ws, apiErr := s.workspaceFor(prog, digest)
		if apiErr != nil {
			return nil, apiErr
		}
		// Run the grid jobs against the cached workspace's own program
		// value: WithWorkspace checks program identity.
		workspaces[ws.Program] = ws
		grid.Apps = append(grid.Apps, mhla.GridApp{Name: ref, Program: ws.Program})
	}

	jobs := grid.Jobs()
	for i := range jobs {
		jobs[i].Options = append([]mhla.Option{mhla.WithWorkspace(workspaces[jobs[i].Program])}, jobs[i].Options...)
	}
	ex := mhla.Explorer{Workers: wk.batchWorkers}
	// Same nested-pool discipline as the sweep: engine workers default
	// to 1 (the Explorer pool owns the parallelism), an explicit
	// engine count on a parallel engine turns the Explorer sequential
	// (greedy ignores Workers, so it keeps the pool), and an explicit
	// pair is product-capped at intake.
	if wk.workers == 0 {
		ex.Options = append(ex.Options, mhla.WithWorkers(1))
	} else if wk.batchWorkers == 0 && wk.exact {
		ex.Workers = 1
	}
	if progress != nil {
		ex.Options = append(ex.Options, mhla.WithProgress(progress))
	}
	results, err := ex.Explore(ctx, jobs)
	if err != nil {
		return nil, mapRunError(err)
	}
	resp := batchResponse{Jobs: make([]batchJobJSON, 0, len(results))}
	for _, jr := range results {
		job := batchJobJSON{Label: jr.Label}
		if jr.Err != nil {
			// Same sanitization discipline as mapRunError: input-derived
			// and context errors pass through, anything unexpected stays
			// a fixed message.
			job.Error = mapRunError(jr.Err).msg
		} else {
			body, err := mhla.ResultJSON(jr.Result)
			if err != nil {
				return nil, mapRunError(err)
			}
			job.Result = body
		}
		resp.Jobs = append(resp.Jobs, job)
	}
	body, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, mapRunError(err)
	}
	return body, nil
}

// simulateWork is the validated form of a POST /v1/simulate body.
type simulateWork struct {
	prog     *mhla.Program
	digest   string
	plat     *mhla.Platform
	cacheCfg mhla.CacheConfig
}

func (req *simulateRequest) work(s *Server) (work, *apiError) {
	plat, apiErr := req.platform()
	if apiErr != nil {
		return nil, apiErr
	}
	cacheCfg, apiErr := req.cacheConfig(plat)
	if apiErr != nil {
		return nil, apiErr
	}
	prog, digest, apiErr := s.resolveProgram(req.programRef)
	if apiErr != nil {
		return nil, apiErr
	}
	return &simulateWork{prog: prog, digest: digest, plat: plat, cacheCfg: cacheCfg}, nil
}

func (wk *simulateWork) execute(ctx context.Context, s *Server, progress mhla.ProgressFunc) ([]byte, *apiError) {
	ws, apiErr := s.workspaceFor(wk.prog, wk.digest)
	if apiErr != nil {
		return nil, apiErr
	}
	opts := append(flowOptions(ws, progress), mhla.WithPlatform(wk.plat))
	res, err := mhla.Simulate(ctx, nil, wk.cacheCfg, opts...)
	if err != nil {
		return nil, mapSimulateError(err)
	}
	body, err := mhla.SimulateJSON(res)
	if err != nil {
		return nil, mapSimulateError(err)
	}
	return body, nil
}
