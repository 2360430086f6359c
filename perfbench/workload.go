package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"mhla/internal/apps"
	"mhla/internal/progen"
	"mhla/pkg/mhla"
)

// The workloads. Each stresses a different layer of the serving path;
// the why of each is recorded in BENCHMARK.json.
const (
	// runWarm is the paper's experiment: the nine catalog apps at
	// paper scale, each at its figure L1 size, default greedy engine.
	// The catalog memo and the workspace cache hit on every request,
	// so assignment search dominates.
	runWarm = "run-warm"
	// runCold sends inline progen programs, cycling a pool four times
	// the server's workspace cache in seeded order, so every request
	// decodes, digests, compiles and evicts.
	runCold = "run-cold"
	// sweepExact is the exact (branch-and-bound) 17-point L1 sweep of
	// seven catalog apps. qsdpcm's exact sweep does not finish within
	// seconds. jpeg's takes about 140 ms alone, about 200 ms under the
	// closed loop: with it, a run would need about 30 s to collect the
	// 1000 samples its p99 needs, and runs that long spread further
	// apart on a drifting host than the 15 s ones without it.
	sweepExact = "sweep-exact"
)

var workloadNames = []string{runWarm, runCold, sweepExact}

// serverCacheEntries is mhla-serve's default workspace-cache size.
const serverCacheEntries = 64

// coldPoolSize is the run-cold program pool: four times the server's
// workspace cache, so a program is long evicted when the cycle comes
// back to it.
const coldPoolSize = 4 * serverCacheEntries

// warmPasses is how many seeded permutations of the catalog the timed
// sequences of run-warm and sweep-exact hold before they repeat: more
// than a timed phase gets through, so how often the slowest app runs
// beside itself is a property of the whole distribution, not of one
// seed's first few permutations.
const warmPasses = 4096

// request is one distinct request of a workload, with the bytes the
// facade produced for it in this process before the server started.
type request struct {
	label string
	path  string
	body  []byte
	raw   []byte // the whole HTTP request
	want  []byte
	// energyObjective marks requests whose search minimizes energy, for
	// which MHLA energy may not exceed the Original's.
	energyObjective bool

	// What the traced run needs to replay the request through the
	// facade, layer by layer.
	sweep    bool
	ws       *mhla.Workspace // catalog requests: compiled once here
	progJSON []byte          // inline requests: the program bytes sent
	platJSON []byte          // inline requests: the platform bytes sent
	plat     *mhla.Platform  // catalog runs: the request's platform
	opts     []mhla.Option   // search options of the request
}

// workload is a seeded request set: the distinct requests, the priming
// pass and the timed sequence (indices into reqs; the timed sequence
// is cycled).
type workload struct {
	name  string
	seed  int64
	reqs  []*request
	prime []int
	order []int
	// energyRatios and cycleRatios are MHLA energy / Original energy
	// and MHLA+TE cycles / Original cycles of every distinct request
	// (every point, for sweeps).
	energyRatios []float64
	cycleRatios  []float64
}

// wireRequest is the body of the POST /v1/run and /v1/sweep requests
// the benchmark sends.
type wireRequest struct {
	App          string          `json:"app,omitempty"`
	Program      json.RawMessage `json:"program,omitempty"`
	Platform     json.RawMessage `json:"platform,omitempty"`
	L1Bytes      int64           `json:"l1_bytes,omitempty"`
	Engine       string          `json:"engine,omitempty"`
	Objective    string          `json:"objective,omitempty"`
	Policy       string          `json:"policy,omitempty"`
	NoInPlace    bool            `json:"no_in_place,omitempty"`
	AbsoluteGain bool            `json:"absolute_gain,omitempty"`
}

// buildWorkload generates the named workload from the seed and computes
// the facade's answer to every distinct request. The same seed gives
// the same request bytes.
func buildWorkload(ctx context.Context, name string, seed int64) (*workload, error) {
	w := &workload{name: name, seed: seed}
	var err error
	switch name {
	case runWarm:
		err = w.buildCatalog(ctx, false)
	case sweepExact:
		err = w.buildCatalog(ctx, true)
	case runCold:
		err = w.buildCold(ctx)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, r := range w.reqs {
		r.raw = rawRequest(r.path, r.body)
		if err := checkInvariants(r.want, r.energyObjective); err != nil {
			return nil, fmt.Errorf("%s: the facade's answer to %s: %w", name, r.label, err)
		}
		e, c, err := outcomeRatios(r.want)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", name, r.label, err)
		}
		w.energyRatios = append(w.energyRatios, e...)
		w.cycleRatios = append(w.cycleRatios, c...)
	}
	return w, nil
}

// buildCatalog builds run-warm (sweep false) or sweep-exact (sweep
// true): one request per catalog app, a priming pass in seeded order
// and a timed sequence of warmPasses further seeded permutations.
func (w *workload) buildCatalog(ctx context.Context, sweep bool) error {
	for _, app := range apps.All() {
		if sweep && (app.Name == "qsdpcm" || app.Name == "jpeg") {
			continue
		}
		prog := app.Build(apps.Paper)
		ws, err := mhla.Compile(prog)
		if err != nil {
			return fmt.Errorf("compile %s: %w", app.Name, err)
		}
		r := &request{label: app.Name, ws: ws, energyObjective: true, sweep: sweep}
		var wire wireRequest
		if sweep {
			r.path = "/v1/sweep"
			wire = wireRequest{App: app.Name, Engine: string(mhla.BnB)}
			// The server runs each sweep point's engine on one worker;
			// results are identical at every worker count.
			r.opts = []mhla.Option{mhla.WithEngine(mhla.BnB), mhla.WithWorkers(1)}
			sw, err := mhla.SweepL1(ctx, nil, nil, append([]mhla.Option{mhla.WithWorkspace(ws)}, r.opts...)...)
			if err != nil {
				return fmt.Errorf("sweep %s: %w", app.Name, err)
			}
			if r.want, err = sw.JSON(); err != nil {
				return fmt.Errorf("encode sweep %s: %w", app.Name, err)
			}
		} else {
			r.path = "/v1/run"
			wire = wireRequest{App: app.Name, L1Bytes: app.L1}
			r.plat = mhla.TwoLevel(app.L1)
			res, err := mhla.Run(ctx, nil, mhla.WithWorkspace(ws), mhla.WithPlatform(r.plat))
			if err != nil {
				return fmt.Errorf("run %s: %w", app.Name, err)
			}
			if r.want, err = mhla.ResultJSON(res); err != nil {
				return fmt.Errorf("encode %s: %w", app.Name, err)
			}
		}
		if r.body, err = json.Marshal(wire); err != nil {
			return err
		}
		w.reqs = append(w.reqs, r)
	}
	rng := rand.New(rand.NewSource(w.seed))
	w.prime = rng.Perm(len(w.reqs))
	for range warmPasses {
		w.order = append(w.order, rng.Perm(len(w.reqs))...)
	}
	return nil
}

// buildCold builds run-cold: a pool of coldPoolSize inline programs
// with distinct digests from progen seeds 1, 2, ..., each with the
// objective, policy and ranking progen drew for it, sent in a seeded
// order. The pool itself does not depend on the workload seed: every
// seed then asks for the same work, so the spread between runs with
// different seeds is the server's and the host's, not the inputs'.
// Priming sends the first serverCacheEntries programs of the order;
// the timed sequence continues around it, so no program is still
// cached when it comes back.
func (w *workload) buildCold(ctx context.Context) error {
	seen := make(map[string]bool, coldPoolSize)
	for s := int64(1); len(w.reqs) < coldPoolSize; s++ {
		sc := progen.Generate(s)
		digest, err := mhla.ProgramDigest(sc.Program)
		if err != nil {
			return fmt.Errorf("digest progen seed %d: %w", s, err)
		}
		if seen[digest] {
			continue
		}
		seen[digest] = true
		r, err := coldRequest(ctx, sc)
		if err != nil {
			return fmt.Errorf("progen seed %d: %w", s, err)
		}
		w.reqs = append(w.reqs, r)
	}
	perm := rand.New(rand.NewSource(w.seed)).Perm(coldPoolSize)
	w.prime = perm[:serverCacheEntries]
	w.order = append(append([]int(nil), perm[serverCacheEntries:]...), w.prime...)
	return nil
}

// coldRequest builds the inline run request of one progen scenario and
// the facade's answer to it, decoded from the very bytes sent.
func coldRequest(ctx context.Context, sc *progen.Scenario) (*request, error) {
	progJSON, err := compactJSON(mhla.EncodeProgram(sc.Program))
	if err != nil {
		return nil, fmt.Errorf("encode program: %w", err)
	}
	platJSON, err := compactJSON(mhla.EncodePlatform(sc.Platform))
	if err != nil {
		return nil, fmt.Errorf("encode platform: %w", err)
	}
	o := sc.Options
	wire := wireRequest{
		Program:      progJSON,
		Platform:     platJSON,
		Objective:    o.Objective.String(),
		Policy:       o.Policy.String(),
		NoInPlace:    !o.InPlace,
		AbsoluteGain: !o.GainPerByte,
	}
	r := &request{
		label:           fmt.Sprintf("progen-%d", sc.Seed),
		path:            "/v1/run",
		progJSON:        progJSON,
		platJSON:        platJSON,
		energyObjective: o.Objective == mhla.Energy,
		opts:            []mhla.Option{mhla.WithObjective(o.Objective), mhla.WithPolicy(o.Policy)},
	}
	if wire.NoInPlace {
		r.opts = append(r.opts, mhla.WithoutInPlace())
	}
	if wire.AbsoluteGain {
		r.opts = append(r.opts, mhla.WithAbsoluteGain())
	}
	if r.body, err = json.Marshal(wire); err != nil {
		return nil, err
	}
	prog, err := mhla.DecodeProgram(progJSON)
	if err != nil {
		return nil, fmt.Errorf("decode program: %w", err)
	}
	plat, err := mhla.DecodePlatform(platJSON)
	if err != nil {
		return nil, fmt.Errorf("decode platform: %w", err)
	}
	res, err := mhla.Run(ctx, prog, append([]mhla.Option{mhla.WithPlatform(plat)}, r.opts...)...)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	if r.want, err = mhla.ResultJSON(res); err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	return r, nil
}

// compactJSON compacts an encoder's output, passing its error through.
func compactJSON(data []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// verify checks one response two ways: it is a 200 whose body is
// byte-identical to the facade's answer, and the model's ordering
// invariants hold in it. buildWorkload checked the invariants on the
// facade's answer, so for an identical body they hold by identity and
// the client spends no CPU re-parsing it under load.
func (r *request) verify(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", r.label, status, body)
	}
	if !bytes.Equal(body, r.want) {
		return fmt.Errorf("%s: response differs from the facade's bytes", r.label)
	}
	return nil
}

// outcome is the part of a result (or sweep point) the checks read.
type outcome struct {
	L1Bytes     int64   `json:"l1_bytes"`
	OrigCycles  int64   `json:"orig_cycles"`
	MHLACycles  int64   `json:"mhla_cycles"`
	TECycles    int64   `json:"te_cycles"`
	IdealCycles int64   `json:"ideal_cycles"`
	OrigPJ      float64 `json:"orig_pj"`
	MHLAPJ      float64 `json:"mhla_pj"`
}

// outcomes decodes a ResultJSON body (one outcome) or a Sweep.JSON
// body (one outcome per point).
func outcomes(body []byte) ([]outcome, error) {
	var doc struct {
		outcome
		Points []outcome `json:"points"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if doc.Points != nil {
		return doc.Points, nil
	}
	return []outcome{doc.outcome}, nil
}

// checkInvariants checks the model's ordering invariants: Ideal <=
// MHLA+TE <= MHLA cycles, and under the energy objective MHLA energy
// <= Original energy.
func checkInvariants(body []byte, energyObjective bool) error {
	outs, err := outcomes(body)
	if err != nil {
		return err
	}
	for _, o := range outs {
		if !(o.IdealCycles <= o.TECycles && o.TECycles <= o.MHLACycles) {
			return fmt.Errorf("l1 %d: cycles out of order: ideal %d, te %d, mhla %d",
				o.L1Bytes, o.IdealCycles, o.TECycles, o.MHLACycles)
		}
		if energyObjective && o.MHLAPJ > o.OrigPJ {
			return fmt.Errorf("l1 %d: energy objective but MHLA energy %g exceeds the original %g",
				o.L1Bytes, o.MHLAPJ, o.OrigPJ)
		}
	}
	return nil
}

// outcomeRatios returns MHLA energy / Original energy and MHLA+TE
// cycles / Original cycles of every outcome of a body. A program that
// does no work (about one progen scenario in fifty has an Original
// point of zero cycles and energy) has no ratio and adds none.
func outcomeRatios(body []byte) (energy, cycles []float64, err error) {
	outs, err := outcomes(body)
	if err != nil {
		return nil, nil, err
	}
	for _, o := range outs {
		if o.OrigPJ > 0 {
			energy = append(energy, o.MHLAPJ/o.OrigPJ)
		}
		if o.OrigCycles > 0 {
			cycles = append(cycles, float64(o.TECycles)/float64(o.OrigCycles))
		}
	}
	return energy, cycles, nil
}
