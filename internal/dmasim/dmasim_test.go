package dmasim

import (
	"context"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/assign"
	"mhla/internal/core"
	"mhla/internal/energy"
	"mhla/internal/model"
	"mhla/internal/reuse"
	"mhla/internal/te"
	"mhla/internal/workspace"
)

// runApp executes the full flow for one app/scale.
func runApp(t *testing.T, name string, scale apps.Scale) *core.Result {
	t.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runFlow(app.Build(scale), core.Config{Platform: energy.TwoLevel(app.L1)})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestNoTEMatchesAnalyticExactly: without time extensions every
// transfer is synchronous, and the event timeline must reproduce the
// analytical cycle count exactly — the strongest possible agreement
// between the two models.
func TestNoTEMatchesAnalyticExactly(t *testing.T) {
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res := runApp(t, name, apps.Test)
			sim, err := SimulateAssignment(res.Assignment)
			if err != nil {
				t.Fatal(err)
			}
			if sim.Cycles != res.MHLA.Cycles {
				t.Errorf("event %d != analytic %d (diff %d)",
					sim.Cycles, res.MHLA.Cycles, sim.Cycles-res.MHLA.Cycles)
			}
			if sim.StallCycles != res.MHLA.StallCycles {
				t.Errorf("event stalls %d != analytic %d", sim.StallCycles, res.MHLA.StallCycles)
			}
			// Every analytical transfer instance must be simulated.
			var want int64
			for _, st := range res.Assignment.Streams() {
				want += st.Count
			}
			if sim.Transfers != want {
				t.Errorf("transfers %d != %d", sim.Transfers, want)
			}
		})
	}
}

func TestNoTEMatchesAnalyticPaperScaleME(t *testing.T) {
	res := runApp(t, "me", apps.Paper)
	sim, err := SimulateAssignment(res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Cycles != res.MHLA.Cycles {
		t.Errorf("event %d != analytic %d", sim.Cycles, res.MHLA.Cycles)
	}
}

// TestTEOrderingAndTolerance: the event timeline of the TE plan must
// land between the ideal bound and the synchronous execution, and the
// analytical TE estimate must stay close to the event reference.
func TestTEOrderingAndTolerance(t *testing.T) {
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res := runApp(t, name, apps.Test)
			sim, err := Simulate(res.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if sim.Cycles > res.MHLA.Cycles {
				t.Errorf("event TE %d above synchronous %d", sim.Cycles, res.MHLA.Cycles)
			}
			if sim.Cycles < res.Ideal.Cycles {
				t.Errorf("event TE %d below ideal %d", sim.Cycles, res.Ideal.Cycles)
			}
			// The analytical TE point is an estimate of this event
			// reference; require agreement within 10%.
			diff := float64(sim.Cycles-res.TE.Cycles) / float64(res.TE.Cycles)
			if diff < 0 {
				diff = -diff
			}
			if diff > 0.10 {
				t.Errorf("analytic TE %d deviates %.1f%% from event reference %d",
					res.TE.Cycles, 100*diff, sim.Cycles)
			}
			t.Logf("noTE=%d event=%d analytic=%d ideal=%d (deviation %.2f%%)",
				res.MHLA.Cycles, sim.Cycles, res.TE.Cycles, res.Ideal.Cycles, 100*diff)
		})
	}
}

func TestTEPaperScaleME(t *testing.T) {
	res := runApp(t, "me", apps.Paper)
	sim, err := Simulate(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	// The ME plan fully extends both window streams: the event
	// timeline must confirm near-ideal execution.
	gap := float64(sim.Cycles-res.Ideal.Cycles) / float64(res.Ideal.Cycles)
	if gap > 0.01 {
		t.Errorf("event TE %.2f%% above ideal, want <1%%", 100*gap)
	}
	if sim.MaxChannelsBusy > res.Platform.DMA.Channels {
		t.Errorf("used %d channels, platform has %d", sim.MaxChannelsBusy, res.Platform.DMA.Channels)
	}
}

// doubleStream builds a program with two independent heavily-reused
// tables whose copies both want prefetching, to exercise channel
// contention.
func doubleStream(channels int) (*assign.Assignment, *te.Plan, error) {
	p := model.NewProgram("double")
	a := p.NewInput("a", 2, 4096)
	b := p.NewInput("b", 2, 4096)
	p.AddBlock("scan",
		model.For("seg", 32,
			model.For("i", 128,
				model.Load(a, model.IdxC(128, "seg").Plus(model.Idx("i"))),
				model.Load(b, model.IdxC(128, "seg").Plus(model.Idx("i"))),
				model.Work(1),
			)))
	plat := energy.TwoLevel(2048)
	plat.DMA.Channels = channels
	an, err := reuse.Analyze(p)
	if err != nil {
		return nil, nil, err
	}
	asn := assign.New(an, plat, reuse.Slide)
	for _, ch := range an.Chains {
		asn.Select(ch.ID, 1, 0) // 256B segment copies, DMA-sized
	}
	plan, err := te.Extend(asn)
	return asn, plan, err
}

func TestChannelContention(t *testing.T) {
	_, plan1, err := doubleStream(1)
	if err != nil {
		t.Fatal(err)
	}
	_, plan2, err := doubleStream(2)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Simulate(plan1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(plan2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles < r2.Cycles {
		t.Errorf("1 channel (%d cycles) outperformed 2 channels (%d cycles)", r1.Cycles, r2.Cycles)
	}
	if r2.MaxChannelsBusy < 2 {
		t.Errorf("2-channel run used only %d channels concurrently", r2.MaxChannelsBusy)
	}
	if r1.MaxChannelsBusy != 1 {
		t.Errorf("1-channel run reports %d busy", r1.MaxChannelsBusy)
	}
}

func TestHoistedFillNoStall(t *testing.T) {
	// Block 0 is long; the fill of block 1's copy is hoisted into it
	// and must complete without stalling block 1.
	p := model.NewProgram("hoist")
	warm := p.NewInput("warm", 2, 256)
	tbl := p.NewInput("tbl", 2, 512)
	p.AddBlock("warmup", model.For("i", 256, model.Load(warm, model.Idx("i")), model.Work(20)))
	p.AddBlock("use",
		model.For("rep", 64, model.For("i", 512, model.Load(tbl, model.Idx("i")), model.Work(1))))
	plat := energy.TwoLevel(4096)
	an, err := reuse.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	asn := assign.New(an, plat, reuse.Slide)
	for _, ch := range an.Chains {
		if ch.Array.Name == "tbl" {
			asn.Select(ch.ID, 0, 0)
		}
	}
	plan, err := te.Extend(asn)
	if err != nil {
		t.Fatal(err)
	}
	simTE, err := Simulate(plan)
	if err != nil {
		t.Fatal(err)
	}
	simNo, err := SimulateAssignment(asn)
	if err != nil {
		t.Fatal(err)
	}
	// Synchronous: the 1 KiB fill stalls; hoisted: it is free.
	fill := asn.Streams()[0]
	if simNo.Cycles-simTE.Cycles != fill.BTTime {
		t.Errorf("hoist saved %d cycles, want the full fill time %d",
			simNo.Cycles-simTE.Cycles, fill.BTTime)
	}
	if simTE.StallCycles != 0 {
		t.Errorf("hoisted run still stalls %d cycles", simTE.StallCycles)
	}
}

func TestSimulateRejectsInvalidAssignment(t *testing.T) {
	p := model.NewProgram("bad")
	a := p.NewInput("a", 2, 64)
	p.AddBlock("b", model.For("i", 64, model.Load(a, model.Idx("i"))))
	an, err := reuse.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	asn := assign.New(an, energy.TwoLevel(1024), reuse.Slide)
	asn.Chains[an.Chains[0].ID] = &assign.ChainAssign{
		Chain: an.Chains[0], Levels: []int{0}, Layers: []int{1},
	}
	if _, err := SimulateAssignment(asn); err == nil {
		t.Fatal("accepted an invalid assignment")
	}
}

func TestNoDMAPlatformSimulates(t *testing.T) {
	// Without a DMA engine every transfer is a software copy; the
	// event model must still match the analytical count exactly.
	app, _ := apps.ByName("me")
	res, err := runFlow(app.Build(apps.Test), core.Config{Platform: energy.TwoLevelNoDMA(app.L1)})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimulateAssignment(res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Cycles != res.MHLA.Cycles {
		t.Errorf("event %d != analytic %d", sim.Cycles, res.MHLA.Cycles)
	}
	if sim.MaxChannelsBusy != 0 {
		t.Errorf("channels used without DMA: %d", sim.MaxChannelsBusy)
	}
}

// runFlow compiles p and runs the full flow over its workspace.
func runFlow(p *model.Program, cfg core.Config) (*core.Result, error) {
	ws, err := workspace.Compile(p)
	if err != nil {
		return nil, err
	}
	return core.RunWorkspace(context.Background(), ws, cfg)
}
