package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 … 1, unsorted
	}
	for _, tc := range []struct{ p, want float64 }{
		{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%g = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestTailPercentileTenSampleRule checks the reported tail percentile
// is the highest one with at least ten samples beyond it.
func TestTailPercentileTenSampleRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", tc.n, p, beyond(tc.n, p))
		}
	}
	// The chosen percentile is the largest sample with ten above it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	p, _ := tailPercentile(len(xs))
	v := percentile(xs, p)
	above := 0
	for _, x := range xs {
		if x > v {
			above++
		}
	}
	if above != minBeyond {
		t.Errorf("p%g = %v has %d samples above it, want %d", p, v, above, minBeyond)
	}
}

func TestGeomean(t *testing.T) {
	got, err := geomean([]float64{1, 4, 16})
	if err != nil || math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1, 4, 16) = %v, %v; want 4", got, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}, {math.NaN()}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v) gave no error", bad)
		}
	}
}

// TestRatioGeomean checks Table 1's Full/Handwritten summary: per-key
// ratios, then their geometric mean, not the ratio of sums.
func TestRatioGeomean(t *testing.T) {
	num := map[string]float64{"gzip": 200, "mcf": 50, "extra": 7}
	den := map[string]float64{"gzip": 100, "mcf": 100}
	got, err := ratioGeomean(num, den)
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Errorf("geomean(2, 0.5) = %v, %v; want 1 (the ratio of sums would be 0.75)", got, err)
	}
	if _, err := ratioGeomean(map[string]float64{"gzip": 1}, den); err == nil {
		t.Error("missing numerator gave no error")
	}
	if _, err := ratioGeomean(num, map[string]float64{"gzip": 0}); err == nil {
		t.Error("zero denominator gave no error")
	}
}

func TestTallyCountsFailuresWithoutAborting(t *testing.T) {
	var tl tally
	if tl.okFrac() != 1 || tl.failFrac() != 0 {
		t.Fatalf("empty tally: ok %v fail %v", tl.okFrac(), tl.failFrac())
	}
	for i := 0; i < 8; i++ {
		tl.check(op{"graph", i}, i%4 != 0, "op %d", i)
	}
	if tl.attempted() != 8 || tl.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 8 and 2", tl.attempted(), tl.failed)
	}
	if tl.failFrac() != 0.25 || tl.okFrac() != 0.75 {
		t.Errorf("failFrac %v okFrac %v, want 0.25 and 0.75", tl.failFrac(), tl.okFrac())
	}
	if len(tl.reasons) != 2 || tl.reasons[1] != "op 4" {
		t.Errorf("reasons %q", tl.reasons)
	}
	for i := 0; i < 2*maxReasons; i++ {
		tl.check(op{"x", i}, false, "x")
	}
	if len(tl.reasons) != maxReasons || tl.failed != 2+2*maxReasons {
		t.Errorf("kept %d reasons for %d failures", len(tl.reasons), tl.failed)
	}
}

// TestTallyCountsEachOperationOnce repeats the checks of one set of
// operations, as a run's repetitions and passes do: each operation
// counts once, and fails if any of its checks failed.
func TestTallyCountsEachOperationOnce(t *testing.T) {
	var tl tally
	for pass := 0; pass < 5; pass++ {
		for i := 0; i < 100; i++ {
			// Graph 7 fails in the third pass only; graph 9 always.
			tl.check(op{"x86/full", i}, !(i == 7 && pass == 2) && i != 9, "graph %d", i)
		}
		tl.check(op{"library x86", 0}, true, "")
	}
	if tl.attempted() != 101 || tl.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 101 and 2", tl.attempted(), tl.failed)
	}
	if len(tl.reasons) != 6 {
		t.Errorf("want one reason per failed check, got %q", tl.reasons)
	}
	// One failed operation among a run's few thousand must move the
	// fail share past ok_frac's bound of 1e-4.
	var big tally
	for i := 0; i < 5000; i++ {
		big.check(op{"g", i}, i != 0, "")
	}
	if big.failFrac() <= 1e-4 {
		t.Errorf("one failure in 5000 operations: failFrac %v", big.failFrac())
	}
}

// TestSpanTimesSelfSubtraction builds a span tree by hand:
//
//	root [0,100)
//	  a [10,50)
//	    b [20,30)
//	    b [30,45)
//	  c [60,100) on another thread, ending with its parent
//	    b [95,101) ends 1µs after its parent (truncation) and is clipped
func TestSpanTimesSelfSubtraction(t *testing.T) {
	spans := []span{
		{"b", 30, 15},
		{"root", 0, 100},
		{"c", 60, 40},
		{"a", 10, 40},
		{"b", 20, 10},
		{"b", 95, 6},
	}
	total, self := spanTimes(spans)
	wantSelf := map[string]int64{"root": 100 - 40 - 40, "a": 40 - 25, "b": 10 + 15 + 6, "c": 40 - 5}
	wantTotal := map[string]int64{"root": 100, "a": 40, "b": 31, "c": 40}
	for k, v := range wantSelf {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
		if total[k] != wantTotal[k] {
			t.Errorf("total[%s] = %d, want %d", k, total[k], wantTotal[k])
		}
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != 101 {
		// Self times add up to the root plus the clipped microsecond.
		t.Errorf("self times sum to %d, want 101", sum)
	}
}

func TestSpanTimesSiblingsAfterChildEnds(t *testing.T) {
	// A span starting exactly where the previous one ends is its
	// sibling, not its child.
	_, self := spanTimes([]span{{"p", 0, 10}, {"x", 0, 5}, {"y", 5, 5}})
	if self["p"] != 0 || self["x"] != 5 || self["y"] != 5 {
		t.Errorf("self = %v", self)
	}
}

func TestBuildLedgerCarvesSolverTime(t *testing.T) {
	self := map[string]int64{
		spanRoot:      1000,
		"driver.Run":  500,
		"goal":        1000,
		"multiset":    2000,
		"synth":       4000,
		"verify":      1500,
		"isel.New":    500,
		"isel.Select": 700,
		"isel.select": 300,
		"unknown":     500,
	}
	us := time.Microsecond
	l := buildLedger(self, 5000*us, 4500*us, 12000*us)
	got := map[string]time.Duration{}
	for _, e := range l.entries {
		got[e.layer] = e.self
	}
	want := map[string]time.Duration{
		"bench": 1000 * us, "driver": 500 * us, "cegis.enumerate": 1000 * us,
		"cegis.encode": 2000 * us, "cegis.query": 500 * us, "smt": 500 * us,
		"sat": 4500 * us, "pattern": 500 * us, "isel": 1000 * us, "unknown": 500 * us,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("ledger[%s] = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("ledger has layers %v", got)
	}
	if f := l.sumFrac(); math.Abs(f-1) > 1e-12 {
		t.Errorf("sumFrac = %v, want 1", f)
	}
	if f := l.unattributed(); math.Abs(f-1000.0/12000) > 1e-12 {
		t.Errorf("unattributed = %v, want the bench layer's 1000/12000", f)
	}
	if l.entries[0].layer != "sat" {
		t.Errorf("largest layer first: got %s", l.entries[0].layer)
	}
	var sb strings.Builder
	l.write(&sb)
	if !strings.Contains(sb.String(), "sat") || !strings.Contains(sb.String(), "100.00%") {
		t.Errorf("table:\n%s", sb.String())
	}
}

// TestLedgerNegativeSelfCountsAgainstSum checks an inconsistent ledger
// (SMT time larger than the spans it lies in) reads above 1 rather than
// cancelling out.
func TestLedgerNegativeSelfCountsAgainstSum(t *testing.T) {
	us := time.Microsecond
	l := buildLedger(map[string]int64{"synth": 100}, 300*us, 0, 400*us)
	// cegis.query = 100 − 300 = −200, smt = 300: |−200| + 300 = 500.
	if f := l.sumFrac(); math.Abs(f-1.25) > 1e-12 {
		t.Errorf("sumFrac = %v, want 1.25", f)
	}
}

func TestReadChromeSpans(t *testing.T) {
	doc := `{"traceEvents":[
		{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"goal x"}},
		{"name":"goal","cat":"selgen","ph":"X","ts":10,"dur":30,"pid":1,"tid":1},
		{"name":"progress","ph":"i","ts":12,"pid":1,"tid":0,"s":"t"}
	],"displayTimeUnit":"ms"}`
	spans, err := readChromeSpans(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0] != (span{"goal", 10, 30}) {
		t.Errorf("spans = %v", spans)
	}
	if _, err := readChromeSpans(strings.NewReader("{")); err == nil {
		t.Error("truncated trace gave no error")
	}
}

func TestReportCountsExactness(t *testing.T) {
	var sb strings.Builder
	f := reportCounts(&sb, []map[string]float64{
		{"a": 1, "b": 2},
		{"a": 1, "b": 3},
	})
	if f != 0.5 {
		t.Errorf("exact share %v, want 0.5", f)
	}
	if !strings.Contains(sb.String(), "NO [2 3]") {
		t.Errorf("table does not flag b:\n%s", sb.String())
	}
}

func TestScaleToReferenceKernel(t *testing.T) {
	// A run whose kernel took twice its nominal time ran on a machine
	// half as fast: its times are halved.
	if got := scaleTo(0.06, []float64{0.11, 0.12, 0.5}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("scaleTo = %v, want 0.5", got)
	}
	if got := scaleTo(0.06, nil); got != 1 {
		t.Errorf("scaleTo with no samples = %v, want 1", got)
	}
}

func TestRefKernelRepeatsItsWork(t *testing.T) {
	k := newRefKernel()
	if a, b := k.run(), k.run(); a != b {
		t.Errorf("kernel checksums differ between runs: %d, %d", a, b)
	}
	k.sample()
	if len(k.secs) != 1 || !(k.secs[0] > 0) {
		t.Errorf("sample recorded %v", k.secs)
	}
}

func TestRefKernelWalkIsOneCycle(t *testing.T) {
	k := newRefKernel()
	p, n := uint32(0), 0
	for {
		p = k.next[p]
		n++
		if p == 0 {
			break
		}
		if n > len(k.next) {
			t.Fatal("walk from slot 0 does not return to it")
		}
	}
	if n != len(k.next) {
		t.Errorf("cycle through slot 0 has %d slots, want all %d", n, len(k.next))
	}
}
