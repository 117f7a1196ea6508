package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified. It is 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (p in
// (0, 100]): the smallest sample with at least p% of the samples at or
// below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// ⌈p·n/100⌉ clamped to [1, n]; the epsilon keeps float rounding (99.9 ×
// 1000 / 100 = 999.0000000000001) from bumping an exact rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// beyond is the number of samples above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentile picks the highest candidate percentile that still has
// at least ten of n samples beyond it; ok is false when even the median
// does not (fewer than 20 samples).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// geomean is the geometric mean of strictly positive values.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geometric mean of no values")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("geometric mean of non-positive value %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// ratioGeomean is the geometric mean of num[k]/den[k] over the keys of
// den — Table 1's per-benchmark runtime ratio summarized across
// benchmarks. Every key of den must be in num.
func ratioGeomean(num, den map[string]float64) (float64, error) {
	keys := make([]string, 0, len(den))
	for k := range den {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ratios := make([]float64, 0, len(keys))
	for _, k := range keys {
		n, ok := num[k]
		if !ok {
			return 0, fmt.Errorf("ratio for %s: no numerator", k)
		}
		if !(den[k] > 0) {
			return 0, fmt.Errorf("ratio for %s: denominator %v", k, den[k])
		}
		ratios = append(ratios, n/den[k])
	}
	return geomean(ratios)
}

// op names one checked operation of a run: a synthesis goal, a
// library, or one graph (by index) selected by one selector.
type op struct {
	name string
	i    int
}

// tally counts attempted and failed operations. Each distinct operation
// counts once per run, however often a run repeats it, and fails if any
// of its checks failed: one failing goal or graph then moves fail_frac
// by one over the run's few thousand operations, not by one over every
// repetition of them. A failed check never aborts the run: it is
// counted, its first few reasons are kept for the report, and the run
// goes on.
type tally struct {
	// ops maps each operation checked so far to whether it failed.
	ops     map[op]bool
	failed  int
	reasons []string
}

const maxReasons = 20

// check records a check of operation o; ok false fails o, with the
// reason formatted from format and args.
func (t *tally) check(o op, ok bool, format string, args ...any) bool {
	if t.ops == nil {
		t.ops = map[op]bool{}
	}
	failed := t.ops[o]
	t.ops[o] = failed || !ok
	if !ok {
		if !failed {
			t.failed++
		}
		if len(t.reasons) < maxReasons {
			t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// attempted is the number of distinct operations checked.
func (t *tally) attempted() int { return len(t.ops) }

// failFrac is failed over attempted (0 when nothing was attempted).
func (t *tally) failFrac() float64 {
	if len(t.ops) == 0 {
		return 0
	}
	return float64(t.failed) / float64(len(t.ops))
}

// okFrac is the share of attempted operations that succeeded.
func (t *tally) okFrac() float64 { return 1 - t.failFrac() }
