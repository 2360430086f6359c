package lifetime

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mhla/internal/model"
)

func TestProfileAndPeak(t *testing.T) {
	e := &Estimator{NumBlocks: 4, InPlace: true}
	objs := []Object{
		{ID: "a", Bytes: 100, Start: 0, End: 1},
		{ID: "b", Bytes: 50, Start: 1, End: 2},
		{ID: "c", Bytes: 200, Start: 3, End: 3},
	}
	prof := e.Profile(objs)
	want := []int64{100, 150, 50, 200}
	for b := range want {
		if prof[b] != want[b] {
			t.Errorf("profile[%d] = %d, want %d", b, prof[b], want[b])
		}
	}
	if got := e.Peak(objs); got != 200 {
		t.Errorf("Peak = %d, want 200", got)
	}
}

func TestPeakWithoutInPlace(t *testing.T) {
	e := &Estimator{NumBlocks: 4, InPlace: false}
	objs := []Object{
		{ID: "a", Bytes: 100, Start: 0, End: 0},
		{ID: "b", Bytes: 50, Start: 3, End: 3},
	}
	if got := e.Peak(objs); got != 150 {
		t.Errorf("Peak without in-place = %d, want 150 (sum)", got)
	}
}

func TestPeakEmptyAndClamping(t *testing.T) {
	e := &Estimator{NumBlocks: 3, InPlace: true}
	if got := e.Peak(nil); got != 0 {
		t.Errorf("Peak(nil) = %d", got)
	}
	// Out-of-range lifetimes are clamped, not dropped.
	objs := []Object{{ID: "x", Bytes: 10, Start: -5, End: 99}}
	prof := e.Profile(objs)
	for b, v := range prof {
		if v != 10 {
			t.Errorf("profile[%d] = %d, want 10", b, v)
		}
	}
}

func buildTwoPhase() *model.Program {
	p := model.NewProgram("two-phase")
	in := p.NewInput("in", 1, 64)
	tmp := p.NewArray("tmp", 1, 64)
	out := p.NewOutput("out", 1, 64)
	p.AddBlock("produce", model.For("i", 64, model.Load(in, model.Idx("i")), model.Store(tmp, model.Idx("i"))))
	p.AddBlock("consume", model.For("i", 64, model.Load(tmp, model.Idx("i")), model.Store(out, model.Idx("i"))))
	p.AddBlock("tail", model.For("i", 64, model.Load(out, model.Idx("i"))))
	return p
}

func TestArraySpans(t *testing.T) {
	p := buildTwoPhase()
	spans := ArraySpans(p)
	// Input array is live from block 0 even though only accessed there.
	if s := spans["in"]; s.Start != 0 || s.End != 0 || !s.Used {
		t.Errorf("in span = %+v", s)
	}
	// tmp spans produce..consume.
	if s := spans["tmp"]; s.Start != 0 || s.End != 1 {
		t.Errorf("tmp span = %+v", s)
	}
	// Output array live until the last block.
	if s := spans["out"]; s.Start != 1 || s.End != 2 {
		t.Errorf("out span = %+v", s)
	}
}

func TestArraySpansInputExtends(t *testing.T) {
	p := model.NewProgram("late-input")
	in := p.NewInput("in", 1, 16)
	p.AddBlock("idle", model.Work(10))
	p.AddBlock("use", model.For("i", 16, model.Load(in, model.Idx("i"))))
	spans := ArraySpans(p)
	// Input data exists from the start: span begins at block 0.
	if s := spans["in"]; s.Start != 0 || s.End != 1 {
		t.Errorf("in span = %+v, want 0..1", s)
	}
}

func TestArraySpansUnusedArrays(t *testing.T) {
	p := model.NewProgram("unused")
	p.NewArray("dead", 1, 16)
	p.NewOutput("sink", 1, 16)
	p.AddBlock("b", model.Work(1))
	spans := ArraySpans(p)
	if s := spans["dead"]; s.Used {
		t.Errorf("dead span = %+v, want unused", s)
	}
	// Output arrays are considered used even without accesses.
	if s := spans["sink"]; !s.Used || s.End != 0 {
		t.Errorf("sink span = %+v", s)
	}
}

func TestQuickPeakBounds(t *testing.T) {
	// peak(in-place) <= sum of sizes and >= max object size; disabling
	// in-place always gives the sum.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nb := 1 + r.Intn(6)
		e := &Estimator{NumBlocks: nb, InPlace: true}
		noIP := &Estimator{NumBlocks: nb, InPlace: false}
		n := r.Intn(8)
		var objs []Object
		var sum, maxObj int64
		for i := 0; i < n; i++ {
			start := r.Intn(nb)
			end := start + r.Intn(nb-start)
			bytes := int64(1 + r.Intn(1000))
			objs = append(objs, Object{ID: "o", Bytes: bytes, Start: start, End: end})
			sum += bytes
			if bytes > maxObj {
				maxObj = bytes
			}
		}
		peak := e.Peak(objs)
		if peak > sum || (n > 0 && peak < maxObj) {
			return false
		}
		return noIP.Peak(objs) == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPeakMonotoneInObjects(t *testing.T) {
	// Adding an object never decreases the peak.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nb := 1 + r.Intn(5)
		e := &Estimator{NumBlocks: nb, InPlace: true}
		var objs []Object
		prev := int64(0)
		for i := 0; i < 6; i++ {
			start := r.Intn(nb)
			objs = append(objs, Object{
				ID: "o", Bytes: int64(r.Intn(100)),
				Start: start, End: start + r.Intn(nb-start),
			})
			peak := e.Peak(objs)
			if peak < prev {
				return false
			}
			prev = peak
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDescribe(t *testing.T) {
	e := &Estimator{NumBlocks: 2, InPlace: true}
	s := e.Describe([]Object{{ID: "buf", Bytes: 64, Start: 0, End: 1}})
	if !strings.Contains(s, "buf") || !strings.Contains(s, "block 1: 64B") {
		t.Errorf("Describe output:\n%s", s)
	}
}
