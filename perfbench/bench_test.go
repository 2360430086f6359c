package main

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"mhla/pkg/mhla"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // 100 .. 1, unsorted
	}
	for _, tc := range []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.5, 50, 50},
		{0.9, 90, 10},
		{0.99, 99, 1},
		{1, 100, 0},
		{0.001, 1, 99},
	} {
		got, beyond := percentile(samples, tc.q)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("percentile(1..100, %g) = %g with %d beyond, want %g with %d", tc.q, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	if samples[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	samples := []float64{1, 2, 3, math.Inf(1)}
	if got, _ := percentile(samples, 1); !math.IsInf(got, 1) {
		t.Errorf("max with a failed request = %g, want +Inf", got)
	}
	if got, _ := percentile(samples, 0.5); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	if _, err := tailPercentile(mk(1100), 0.99); err != nil {
		t.Errorf("p99 of 1100 samples: %v", err)
	}
	_, err := tailPercentile(mk(999), 0.99)
	if err == nil || !strings.Contains(err.Error(), "9 samples beyond") {
		t.Errorf("p99 of 999 samples: err = %v, want a 9-beyond refusal", err)
	}
	if _, err := tailPercentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples accepted")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g", got)
	}
}

func TestGeomean(t *testing.T) {
	got, err := geomean([]float64{2, 8})
	if err != nil || math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %g, %v; want 4", got, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}, {math.Inf(1)}, {math.NaN()}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v) accepted", bad)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses; utime (150) and
	// stime (50) are fields 14 and 15.
	line := "4242 (mhla (serve) x) S 1 4242 4242 0 -1 4194560 1200 0 0 0 150 50 0 0 20 0 9 0 777 1000000 3000\n"
	got, err := parseProcStat(line)
	if err != nil || got != 2*time.Second {
		t.Errorf("parseProcStat = %v, %v; want 2s", got, err)
	}
	for _, bad := range []string{"", "4242 (x) S 1 2", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 ten 0"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tmhla-serve\nVmPeak:\t 1300000 kB\nVmHWM:\t   23456 kB\nVmRSS:\t   20000 kB\n"
	if got, err := parseStatusKB(status, "VmHWM"); err != nil || got != 23456<<10 {
		t.Errorf("VmHWM = %d, %v; want %d", got, err, 23456<<10)
	}
	if got, err := parseStatusKB(status, "VmRSS"); err != nil || got != 20000<<10 {
		t.Errorf("VmRSS = %d, %v; want %d", got, err, 20000<<10)
	}
	for _, bad := range []string{"VmRSS:\t 1 kB\n", "VmHWM:\t 12 MB\n", "VmHWM:\t x kB\n"} {
		if _, err := parseStatusKB(bad, "VmHWM"); err == nil {
			t.Errorf("VmHWM of %q accepted", bad)
		}
	}
}

func TestWorkloadsAreSeeded(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{runWarm, runCold} {
		a, err := buildWorkload(ctx, name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(ctx, name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.reqs) != len(b.reqs) || !slices.Equal(a.prime, b.prime) || !slices.Equal(a.order, b.order) {
			t.Fatalf("%s: the same seed gave different sequences", name)
		}
		for i := range a.reqs {
			if !bytes.Equal(a.reqs[i].body, b.reqs[i].body) || !bytes.Equal(a.reqs[i].want, b.reqs[i].want) {
				t.Fatalf("%s: request %d differs between builds with the same seed", name, i)
			}
		}
		c, err := buildWorkload(ctx, name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(a.prime, c.prime) || slices.Equal(a.order, c.order) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

func TestRunWarmSequence(t *testing.T) {
	w, err := buildWorkload(context.Background(), runWarm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.reqs) != 9 || len(w.energyRatios) != 9 {
		t.Fatalf("run-warm has %d requests and %d ratios, want the nine catalog apps", len(w.reqs), len(w.energyRatios))
	}
	// Priming and every pass of the timed sequence visit each app once.
	for start := 0; start < len(w.order); start += len(w.reqs) {
		if !isPermutation(w.order[start:start+len(w.reqs)], len(w.reqs)) {
			t.Fatalf("timed pass at %d is not a permutation of the catalog", start)
		}
	}
	if !isPermutation(w.prime, len(w.reqs)) {
		t.Fatal("priming is not one pass over the catalog")
	}
}

func TestRunColdPoolMissesTheCache(t *testing.T) {
	w, err := buildWorkload(context.Background(), runCold, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.reqs) != coldPoolSize || len(w.prime) != serverCacheEntries {
		t.Fatalf("pool %d, priming %d; want %d and %d", len(w.reqs), len(w.prime), coldPoolSize, serverCacheEntries)
	}
	digests := make(map[string]int)
	for i, r := range w.reqs {
		prog, err := mhla.DecodeProgram(r.progJSON)
		if err != nil {
			t.Fatal(err)
		}
		d, err := mhla.ProgramDigest(prog)
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := digests[d]; dup {
			t.Fatalf("requests %d and %d carry the same program", j, i)
		}
		digests[d] = i
	}
	if !isPermutation(append(append([]int(nil), w.prime...), w.order[:coldPoolSize-serverCacheEntries]...), coldPoolSize) {
		t.Fatal("priming and the first trip of the timed sequence do not send each program once")
	}
	// Between two sends of a program, more distinct programs than the
	// cache holds are sent (priming included), so every timed request
	// misses.
	last := make(map[int]int)
	seq := append(append([]int(nil), w.prime...), w.order...)
	seq = append(seq, w.order...)
	for pos, idx := range seq {
		if prev, ok := last[idx]; ok && pos-prev <= serverCacheEntries+clients {
			t.Fatalf("program %d comes back after %d requests", idx, pos-prev)
		}
		last[idx] = pos
	}
}

func TestVerify(t *testing.T) {
	want := []byte(`{"orig_cycles":100}`)
	r := &request{label: "x", want: want}
	if err := r.verify(200, want); err != nil {
		t.Errorf("good response rejected: %v", err)
	}
	if err := r.verify(500, want); err == nil {
		t.Error("500 accepted")
	}
	if err := r.verify(200, append([]byte(" "), want...)); err == nil {
		t.Error("response differing from the facade's bytes accepted")
	}
}

func TestCheckInvariants(t *testing.T) {
	good := `{"orig_cycles":100,"mhla_cycles":80,"te_cycles":70,"ideal_cycles":60,"orig_pj":10,"mhla_pj":5}`
	if err := checkInvariants([]byte(good), true); err != nil {
		t.Errorf("good result rejected: %v", err)
	}
	for _, bad := range []string{
		`{"orig_cycles":100,"mhla_cycles":80,"te_cycles":90,"ideal_cycles":60,"orig_pj":10,"mhla_pj":5}`,
		`{"orig_cycles":100,"mhla_cycles":80,"te_cycles":70,"ideal_cycles":75,"orig_pj":10,"mhla_pj":5}`,
		`{"points":[` + good + `,{"orig_cycles":100,"mhla_cycles":80,"te_cycles":70,"ideal_cycles":60,"orig_pj":10,"mhla_pj":11}]}`,
		`not json`,
	} {
		if err := checkInvariants([]byte(bad), true); err == nil {
			t.Errorf("invariant violation accepted: %s", bad)
		}
	}
	// Under another objective MHLA may spend more energy than the
	// original.
	if err := checkInvariants([]byte(`{"orig_cycles":100,"mhla_cycles":80,"te_cycles":70,"ideal_cycles":60,"orig_pj":10,"mhla_pj":11}`), false); err != nil {
		t.Errorf("time-objective result rejected: %v", err)
	}
}

func isPermutation(xs []int, n int) bool {
	seen := make([]bool, n)
	for _, x := range xs {
		if x < 0 || x >= n || seen[x] {
			return false
		}
		seen[x] = true
	}
	return len(xs) == n
}

func TestWindowThroughputIgnoresABurst(t *testing.T) {
	// 700 verified responses over 7 s, 100 a second, except that the
	// fourth second stalls and the first holds failures.
	var samples []sample
	for i := range 700 {
		at := time.Duration(i) * 10 * time.Millisecond
		if at >= 3*time.Second && at < 4*time.Second && i%10 != 0 {
			continue
		}
		ms := 1.0
		if i < 5 {
			ms = math.Inf(1)
		}
		samples = append(samples, sample{done: at, ms: ms})
	}
	if got := windowThroughput(samples, 7*time.Second); got != 100 {
		t.Errorf("windowThroughput = %g, want the median window's 100/s", got)
	}
}

func TestWindowTail(t *testing.T) {
	// 7000 samples: every window has the same latencies 1..1000 ms
	// except one, which is ten times slower.
	var samples []sample
	for w := range 7 {
		for i := range 1000 {
			ms := float64(i + 1)
			if w == 2 {
				ms *= 10
			}
			samples = append(samples, sample{done: time.Duration(w*1000 + i), ms: ms})
		}
	}
	got, err := windowTail(samples, 0.99)
	if err != nil || got != 990 {
		t.Errorf("windowTail = %g, %v; want 990", got, err)
	}
	// Too few samples for one window with ten beyond p99.
	if _, err := windowTail(samples[:900], 0.99); err == nil {
		t.Error("windowTail of 900 samples accepted")
	}
}

func TestOutcomeRatiosSkipIdlePrograms(t *testing.T) {
	body := []byte(`{"points":[{"orig_cycles":100,"te_cycles":50,"orig_pj":8,"mhla_pj":2},{"orig_cycles":0,"te_cycles":0,"orig_pj":0,"mhla_pj":0}]}`)
	energy, cycles, err := outcomeRatios(body)
	if err != nil || !slices.Equal(energy, []float64{0.25}) || !slices.Equal(cycles, []float64{0.5}) {
		t.Errorf("outcomeRatios = %v, %v, %v; want [0.25], [0.5]", energy, cycles, err)
	}
}

func TestCheckExactComparesOnlyIdenticalSources(t *testing.T) {
	dir := t.TempDir()
	states := func(v float64) map[string]metric {
		return map[string]metric{
			"assign.states":    {v, "count"},
			"assign.search_ms": {v / 1000, "ms"}, // a timing: never compared
		}
	}
	parent := runKey(runWarm, 1, 1, strings.Repeat("a", 64))
	change := runKey(runWarm, 1, 1, strings.Repeat("b", 64))
	if parent == change {
		t.Fatalf("keys of different sources are equal: %s", parent)
	}
	if err := checkExact(dir, parent, states(100)); err != nil {
		t.Fatalf("first run: %v", err)
	}
	// Another source may move a count on purpose.
	if err := checkExact(dir, change, states(80)); err != nil {
		t.Fatalf("run of other sources compared with the parent's: %v", err)
	}
	if err := checkExact(dir, parent, states(100)); err != nil {
		t.Fatalf("same sources, same counts: %v", err)
	}
	// The same sources must repeat their counts exactly.
	if err := checkExact(dir, parent, states(101)); err == nil {
		t.Fatal("same sources, different count: no guard error")
	}
	if err := checkExact(dir, runKey(runWarm, 2, 1, strings.Repeat("a", 64)), states(101)); err != nil {
		t.Fatalf("another seed compared with seed 1: %v", err)
	}
}
