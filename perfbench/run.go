package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"selgen/internal/obs"
)

// runTimed is the untraced run: set-up repeated setupReps times, then
// the timed region — synthesis repetitions and selection passes — and
// the end-to-end metrics. The reference kernel runs after every set-up,
// repetition and pass; each end-to-end time is scaled by it (calib.go).
func runTimed(w *workload, cfg config, t *tally, ms metrics) error {
	var setupS []float64
	var e *env
	k := newRefKernel()
	for i := 0; i < setupReps; i++ {
		e = nil
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = w.setup(cfg, nil); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		k.sample()
	}

	// The timed region alternates synthesis repetitions with selection
	// passes, so both sample the whole region rather than one end of
	// it: the machine's speed drifts over seconds. The set-ups' garbage
	// is collected before it starts.
	runtime.GC()
	jobs := w.jobs()
	deadline := time.Now().Add(cfg.seconds)
	var reps []*synthRep
	var passes []pass
	for n := 0; ; {
		if len(reps) < w.minSynthReps || time.Now().Before(deadline) {
			r, err := synthesize(jobs, 1, nil, t)
			if err != nil {
				return err
			}
			if len(reps) == 0 {
				checkLibs(cfg, jobs, nil, r, t)
				if err := addSynthCases(e, jobs, r, nil); err != nil {
					return err
				}
			} else {
				checkLibs(cfg, jobs, reps[0], r, t)
			}
			reps = append(reps, r)
			k.sample()
		}
		for i := 0; i < w.passesPerRep; i++ {
			p := e.selectPass(nil, t)
			passes = append(passes, p)
			n += len(samples([]pass{p}))
			k.sample()
		}
		if len(reps) >= w.minSynthReps && len(passes) >= minPasses && n >= minSamples &&
			!time.Now().Before(deadline) {
			break
		}
	}

	sums, err := summarizeAll(passes)
	if err != nil {
		return err
	}
	var counts []map[string]float64
	for _, r := range reps {
		counts = append(counts, r.counts())
	}
	for _, s := range sums {
		counts = append(counts, s.counts())
	}
	reportCounts(os.Stderr, counts)

	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	synthS := make([]float64, len(reps))
	for i, r := range reps {
		synthS[i] = r.secs
	}
	sel := samples(passes)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d set-ups, %d synthesis repetitions, %d selection passes\n",
		cfg.workload, cfg.seed, len(setupS), len(reps), len(passes))
	reportTiming(os.Stderr, "setup_s", setupS)
	reportTiming(os.Stderr, "synth_s", synthS)
	reportTiming(os.Stderr, "select_ns_per_node", sel)
	reportTiming(os.Stderr, "reference kernel s", k.secs)
	scale := k.scale()
	fmt.Fprintf(os.Stderr, "perfbench: raw times above; the end-to-end times are scaled by %.6g\n", scale)
	ms.set("setup_s", median(setupS)*scale, "s")
	ms.set("synth_s", median(synthS)*scale, "s")
	ms.set("select_ns_per_node", median(sel)*scale, "ns")
	ms.set("peak_rss_mb", rss, "MB")
	ms.set("ok_frac", t.okFrac(), "ratio")
	ms.set("rule_cycles_mean", reps[0].ruleCyclesMean(), "cycles")
	ms.set("cycles_vs_hand", sums[0].cyclesVsHand, "ratio")
	ms.set("coverage", sums[0].coverage, "ratio")
	return nil
}

// reportTiming prints a timing's median with the highest percentile
// that has at least ten samples beyond it, and the sample count.
func reportTiming(w io.Writer, name string, xs []float64) {
	fmt.Fprintf(w, "perfbench: %s median %.6g over %d samples", name, median(xs), len(xs))
	if p, ok := tailPercentile(len(xs)); ok {
		fmt.Fprintf(w, ", p%g %.6g", p, percentile(xs, p))
	} else {
		fmt.Fprintf(w, ", too few for a tail percentile")
	}
	fmt.Fprintln(w)
}

func summarizeAll(ps []pass) ([]selSummary, error) {
	out := make([]selSummary, len(ps))
	for i, p := range ps {
		s, err := summarize(p)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// counterNames are the registry counters reported as deterministic
// synthesis effort.
var counterNames = []string{
	"sat.decisions", "sat.propagations", "sat.conflicts", "sat.restarts",
	"smt.checks",
	"cegis.multisets_tried", "cegis.synth_queries", "cegis.verify_queries",
	"cegis.prefilter_kills", "cegis.cex_reused", "cegis.query_timeouts",
	"cegis.patterns", "driver.retry.attempts",
}

// counts are a synthesis repetition's deterministic effort figures,
// summed over its driver.Run calls.
func (r *synthRep) counts() map[string]float64 {
	out := map[string]float64{}
	seen := map[*obs.Registry]bool{}
	for i, rep := range r.reports {
		if !seen[rep.Metrics] {
			seen[rep.Metrics] = true
			for _, n := range counterNames {
				out[n] += float64(rep.Metrics.CounterValue(n))
			}
		}
		out["bitblast.hits"] += float64(rep.Total.Solver.BlastHits)
		out["bitblast.misses"] += float64(rep.Total.Solver.BlastMisses)
		out["library.rules"] += float64(len(r.libs[i].Rules))
	}
	return out
}

// reportCounts prints each deterministic count with whether it
// repeated exactly across the sets it appears in, and returns the
// share of counts that did.
func reportCounts(w io.Writer, sets []map[string]float64) float64 {
	values := map[string][]float64{}
	for _, s := range sets {
		for k, v := range s {
			values[k] = append(values[k], v)
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	exact := 0
	fmt.Fprintf(w, "%-30s %18s %5s %s\n", "deterministic count", "value", "runs", "repeated")
	for _, n := range names {
		vs := values[n]
		same := true
		for _, v := range vs[1:] {
			same = same && v == vs[0]
		}
		verdict := "exactly"
		if same {
			exact++
		} else {
			verdict = fmt.Sprintf("NO %v", vs)
		}
		fmt.Fprintf(w, "%-30s %18.6f %5d %s\n", n, vs[0], len(vs), verdict)
	}
	if len(names) == 0 {
		return 0
	}
	return float64(exact) / float64(len(names))
}

// runTraced is the traced run. It synthesizes first with one goal per
// CPU (the goal-level scaling, and a warm-up), then once sequentially
// and untraced (the reference for the tracing overhead, and the
// allocation figures), and then traces set-up, one synthesis and two
// selection passes under one root span. It writes the Chrome trace and
// the per-layer self-time ledger, and reports the per-layer metrics.
func runTraced(w *workload, cfg config, t *tally, ms metrics) error {
	jobs := w.jobs()
	par, err := synthesize(jobs, runtime.NumCPU(), nil, t)
	if err != nil {
		return err
	}
	checkLibs(cfg, jobs, nil, par, t)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	base, err := synthesize(jobs, 1, nil, t)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	checkLibs(cfg, jobs, par, base, t)

	tr := obs.New()
	tr.EnableTrace()
	start := time.Now()
	root := tr.Span(0, spanRoot)
	e, err := w.setup(cfg, tr)
	if err != nil {
		return err
	}
	traced, err := synthesize(jobs, 1, tr, t)
	if err != nil {
		return err
	}
	if err := addSynthCases(e, jobs, traced, tr); err != nil {
		return err
	}
	passes := []pass{e.selectPass(tr, t), e.selectPass(tr, t)}
	root.End()
	wall := time.Since(start)
	checkLibs(cfg, jobs, par, traced, t)

	var trace bytes.Buffer
	if err := tr.WriteChromeTrace(&trace); err != nil {
		return err
	}
	spans, err := readChromeSpans(bytes.NewReader(trace.Bytes()))
	if err != nil {
		return err
	}
	total, self := spanTimes(spans)
	reg := tr.Metrics()
	smtCheck := histSum(reg, "smt.check.us")
	satSolve := histSum(reg, "sat.solve.us")
	l := buildLedger(self, smtCheck, satSolve, wall)
	t.check(op{"ledger", 0}, math.Abs(l.sumFrac()-1) <= maxLedgerError,
		"ledger sums to %.2f%% of wall time", 100*l.sumFrac())
	stem := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := writeArtifacts(stem, trace.Bytes(), l); err != nil {
		return err
	}
	l.write(os.Stderr)

	sums, err := summarizeAll(passes)
	if err != nil {
		return err
	}
	exactFrac := reportCounts(os.Stderr, []map[string]float64{
		par.counts(), base.counts(), traced.counts(),
	})
	exactFrac = (exactFrac + reportCounts(os.Stderr, []map[string]float64{
		sums[0].counts(), sums[1].counts(),
	})) / 2
	fmt.Fprintf(os.Stderr, "perfbench: trace of %d spans in %s.trace.json.gz, ledger in %s.ledger.txt\n",
		len(spans), stem, stem)

	us := func(name string) float64 { return float64(total[name]) / 1e6 }
	c := traced.counts()
	s := sums[0]
	satS := satSolve.Seconds()
	ms.set("driver.self_s", us("driver.Run")-us("goal"), "s")
	ms.set("driver.retries", c["driver.retry.attempts"], "count")
	ms.set("driver.goal_max_s", traced.goalMaxS, "s")
	ms.set("driver.parallel_speedup", base.secs/par.secs, "ratio")
	ms.set("cegis.search_s", us("synth"), "s")
	ms.set("cegis.verify_s", us("verify"), "s")
	ms.set("cegis.encode_s", us("multiset")-us("synth")-us("verify"), "s")
	for _, n := range []string{"multisets_tried", "synth_queries", "verify_queries",
		"prefilter_kills", "cex_reused", "query_timeouts"} {
		ms.set("cegis."+n, c["cegis."+n], "count")
	}
	ms.set("cegis.patterns_per_query", ratio(c["cegis.patterns"], c["cegis.synth_queries"]), "ratio")
	ms.set("smt.checks", c["smt.checks"], "count")
	ms.set("smt.self_s", (smtCheck - satSolve).Seconds(), "s")
	ms.set("bitblast.hit_rate", ratio(c["bitblast.hits"], c["bitblast.hits"]+c["bitblast.misses"]), "ratio")
	ms.set("bitblast.misses", c["bitblast.misses"], "count")
	ms.set("sat.solve_s", satS, "s")
	for _, n := range []string{"propagations", "conflicts", "decisions", "restarts"} {
		ms.set("sat."+n, c["sat."+n], "count")
	}
	ms.set("sat.props_per_s", ratio(c["sat.propagations"], satS), "1/s")
	ms.set("sat.solve_us.p50", histQuantile(reg, "sat.solve.us", 0.50), "us")
	ms.set("sat.solve_us.p99", histQuantile(reg, "sat.solve.us", 0.99), "us")
	ms.set("pattern.compile_s", us("isel.New"), "s")
	ms.set("pattern.compiled_rules", s.compiledRules, "count")
	ms.set("pattern.trie_visits_per_node", s.trieVisitsPerNode, "ratio")
	ms.set("isel.select_s", us("isel.Select"), "s")
	ms.set("isel.rules_tried_per_node", s.rulesTriedPerNode, "ratio")
	ms.set("isel.fallback_frac", s.fallbackFrac, "ratio")
	ms.set("isel.vs_hand", ratio(s.nsPerNode, s.handNsPerNode), "ratio")
	ms.set("mach.exec_s", us("mach.Exec"), "s")
	ms.set("mach.instrs_per_graph", s.instrsPerGraph, "count")
	ms.set("firm.exec_s", us("firm.Exec"), "s")
	ms.set("spec.generate_s", us("spec.Generate")+us("spec.Inputs"), "s")
	ms.set("go.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), "MB")
	ms.set("go.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	ms.set("obs.trace_overhead_frac", traced.secs/base.secs-1, "ratio")
	ms.set("ledger.sum_error_frac", math.Abs(l.sumFrac()-1), "ratio")
	ms.set("ledger.unattributed_frac", l.unattributed(), "ratio")
	ms.set("counts.exact_frac", exactFrac, "ratio")
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histSum is the sum of a microsecond latency histogram as a duration.
func histSum(reg *obs.Registry, name string) time.Duration {
	h := reg.HistogramNamed(name)
	if h == nil {
		return 0
	}
	return time.Duration(h.Sum()) * time.Microsecond
}

func histQuantile(reg *obs.Registry, name string, q float64) float64 {
	h := reg.HistogramNamed(name)
	if h == nil {
		return 0
	}
	return float64(h.Quantile(q))
}

// writeArtifacts stores the gzipped Chrome trace and the ledger table.
func writeArtifacts(stem string, trace []byte, l ledger) error {
	if err := os.MkdirAll(filepath.Dir(stem), 0o755); err != nil {
		return err
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(trace); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(stem+".trace.json.gz", gz.Bytes(), 0o644); err != nil {
		return err
	}
	var table bytes.Buffer
	l.write(&table)
	return os.WriteFile(stem+".ledger.txt", table.Bytes(), 0o644)
}
