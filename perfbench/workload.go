package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"selgen/internal/driver"
	"selgen/internal/firm"
	"selgen/internal/ir"
	"selgen/internal/isel"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/spec"
	"selgen/internal/target"
)

// synthJob is one driver.Run call of a workload.
type synthJob struct {
	target string
	groups []driver.Group
	opts   driver.Options
	// kept, when set, is the file under --libs the job's library must
	// equal byte for byte. Otherwise the library joins the selection
	// check as its target's "full" selector.
	kept string
	// extendHand selects with the target's handwritten library extended
	// by the job's rules rather than with the rules alone: an ISA
	// extension group such as BMI covers almost nothing of a spec graph
	// on its own, but is meant to join an existing selector.
	extendHand bool
	// uncovered names the goals that must end with no rule: those with
	// no pattern within the group's size bound. Every other goal must
	// own at least one rule.
	uncovered []string
}

// workload is one benchmark workload: the inputs it generates from the
// seed, the synthesis it times and the selectors it checks.
type workload struct {
	// width is the word width of the generated spec graphs.
	width int
	// hand lists the targets whose handwritten selectors join the
	// selection pass (the Table 1 baseline).
	hand []string
	// kept lists the libraries read from --libs.
	kept []keptLib
	// jobs returns the synthesis runs of one repetition. Their CEGIS
	// seed is fixed at 1, as in examples/bmi: the library and the effort
	// depend on it (at seed 11 the BMI group needs 10% more SAT
	// propagations and yields 96 rules instead of 95), so feeding the
	// run seed into it would move synth_s and rule_cycles_mean with the
	// seed rather than the code. The run seed varies the generated
	// selection inputs.
	jobs func() []synthJob
	// minSynthReps is the least number of synthesis repetitions in the
	// timed region; with two or more the library is compared across
	// repetitions there. The traced run always compares three.
	minSynthReps int
	// passesPerRep is how many selection passes follow each synthesis
	// repetition in the timed region.
	passesPerRep int
}

// Sizes shared by the workloads.
const (
	// specSeeds is how many spec seeds one run generates graphs for
	// (each seed gives one graph set over all eleven profiles).
	specSeeds = 4
	// setupReps is how often a run repeats its set-up, each from a
	// freshly collected heap; setup_s is the median.
	setupReps = 11
	// minSamples is the least number of Select calls on synthesized
	// libraries a run times: p99 then has ten samples beyond it.
	minSamples = 1000
	// minPasses is the least number of selection passes, so selection
	// effort can be compared across passes.
	minPasses = 2
)

var workloads = map[string]*workload{
	"bmi": {
		width: 8,
		hand:  []string{"x86"},
		jobs: func() []synthJob {
			return []synthJob{{
				target: "x86", groups: driver.BMISetup(), extendHand: true,
				opts: driver.Options{
					Target: "x86", Width: 8, MaxPatternsPerGoal: 24,
					PerGoalTimeout: 2 * time.Minute, Seed: 1,
					Parallel: 1, SatWorkers: 1,
				},
			}}
		},
		// One repetition keeps a run near a minute: the group takes
		// 25–50 s on a 2-core x86-64 VM. Twelve selection passes (about
		// five seconds) after it let the Select median average over the
		// machine's second-to-second speed changes.
		minSynthReps: 1,
		passesPerRep: 12,
	},
	"short32": {
		width: 32,
		hand:  []string{"x86", "riscv"},
		jobs: func() []synthJob {
			opts := func(tgt string) driver.Options {
				return driver.Options{
					Target: tgt, Width: 32, MaxPatternsPerGoal: 24,
					PerGoalTimeout: 2 * time.Minute, Seed: 1,
					Parallel: 1, SatWorkers: 1,
				}
			}
			// jmp and j have no pattern of at most 2 nodes, and neither
			// have cmp.js and cmp.jns, whose sign test needs
			// Cmp[slt](Sub(x, y), Const 0).
			return []synthJob{
				{target: "x86", groups: driver.FullSetup()[:1], opts: opts("x86"),
					uncovered: []string{"jmp", "cmp.js", "cmp.jns"}},
				{target: "riscv", groups: driver.RiscVFullSetup()[:2], opts: opts("riscv"),
					uncovered: []string{"j"}},
			}
		},
		minSynthReps: 2,
		passesPerRep: 1,
	},
	"select": {
		width: 8,
		hand:  []string{"x86", "riscv"},
		kept:  keptLibs,
		// The x86 basic library is synthesized again in every run and
		// must equal its kept file: the proof that the kept inputs are
		// reproducible, and the run's synthesis time. One synthesis
		// takes 1.3–2.5 s on a 2-core x86-64 VM; seven or more, each
		// followed by one selection pass (thousands of Select samples),
		// give synth_s a median that one slow stretch of the machine
		// does not move.
		jobs: func() []synthJob {
			return []synthJob{{
				target: "x86", groups: driver.BasicSetup(),
				opts: keptOptions("x86", 1), kept: keptLibs[0].file,
			}}
		},
		minSynthReps: 7,
		passesPerRep: 1,
	},
}

// selCase is one selector of the selection pass.
type selCase struct {
	name, target string
	// role is "hand", "basic" or "full" (Table 1's columns).
	role string
	sel  *isel.Selector
}

// env is a run's set-up: the generated graphs with their inputs and
// reference results, and the selectors built so far.
type env struct {
	graphs []*firm.Graph
	prof   []string
	nodes  []int
	params [][]uint64
	mems   []map[uint64]uint64
	ref    []*firm.ExecResult
	cases  []*selCase
}

// setup generates the spec graphs and their inputs from the seed, runs
// every graph in the firm interpreter for the reference results, and
// builds the handwritten and kept-library selectors.
func (w *workload) setup(cfg config, tr *obs.Tracer) (*env, error) {
	e := &env{}
	ops := ir.Ops()
	for i := int64(0); i < specSeeds; i++ {
		seed := cfg.seed*specSeeds + i
		for _, prof := range spec.Profiles() {
			sp := tr.Span(0, "spec.Generate")
			graphs := spec.Generate(prof, w.width, ops, seed)
			sp.End()
			for _, g := range graphs {
				sp := tr.Span(0, "spec.Inputs")
				params, mems := spec.Inputs(g, seed, 1)
				sp.End()
				sp = tr.Span(0, "firm.Exec")
				ref, err := g.Exec(params[0], mems[0])
				sp.End()
				if err != nil {
					return nil, fmt.Errorf("reference run of %s: %w", g.Name, err)
				}
				e.graphs = append(e.graphs, g)
				e.prof = append(e.prof, prof.Name)
				e.nodes = append(e.nodes, g.NumRealNodes())
				e.params = append(e.params, params[0])
				e.mems = append(e.mems, mems[0])
				e.ref = append(e.ref, ref)
			}
		}
	}
	for _, name := range w.hand {
		tgt, err := target.ByName(name)
		if err != nil {
			return nil, err
		}
		e.addCase(name+"/hand", tgt, "hand", tgt.Handwritten(w.width), tr)
	}
	for _, k := range w.kept {
		tgt, err := target.ByName(k.target)
		if err != nil {
			return nil, err
		}
		sp := tr.Span(0, "pattern.Load")
		lib, err := loadLib(filepath.Join(cfg.libDir, k.file))
		sp.End()
		if err != nil {
			return nil, err
		}
		e.addCase(k.target+"/"+k.role, tgt, k.role, lib, tr)
	}
	return e, nil
}

func loadLib(path string) (*pattern.Library, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pattern.Load(f)
}

// addCase compiles lib into a selector (isel.New runs pattern.Compile).
// A non-nil tracer records the compile and, through the selector, every
// Select.
func (e *env) addCase(name string, tgt *target.Target, role string, lib *pattern.Library, tr *obs.Tracer) {
	sp := tr.Span(0, "isel.New")
	sel := tgt.NewSelector(lib, true)
	sp.End()
	sel.Obs = tr
	e.cases = append(e.cases, &selCase{name: name, target: tgt.Name, role: role, sel: sel})
}

// synthRep is one repetition of a workload's synthesis.
type synthRep struct {
	secs    float64 // summed wall time of the driver.Run calls
	libs    []*pattern.Library
	data    [][]byte
	reports []*driver.Report
	// goalMaxS is the longest single goal (goal span) of the rep.
	goalMaxS float64
}

// synthesize runs every job once with the given goal parallelism and
// tracer (nil = untraced), and checks each goal: it must end StatusOK, and own at least
// one rule of the library unless the job lists it as uncovered.
func synthesize(jobs []synthJob, parallel int, tr *obs.Tracer, t *tally) (*synthRep, error) {
	r := &synthRep{}
	for _, j := range jobs {
		opts := j.opts
		opts.Parallel = parallel
		opts.Obs = tr
		opts.State = driver.NewRunState()
		sp := tr.Span(0, "driver.Run")
		start := time.Now()
		lib, rep, err := driver.Run(j.groups, opts)
		r.secs += time.Since(start).Seconds()
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s synthesis: %w", j.target, err)
		}
		csp := tr.Span(0, spanCheck)
		for _, g := range opts.State.Snapshot().Goals {
			rules := len(lib.ByGoal(g.Goal))
			t.check(op{"goal " + j.target + "/" + g.Group + "/" + g.Goal, 0},
				g.Status == "ok" && (rules > 0) != slices.Contains(j.uncovered, g.Goal),
				"%s goal %s/%s: status %s, %d rules", j.target, g.Group, g.Goal, g.Status, rules)
		}
		var buf bytes.Buffer
		if err := lib.Save(&buf); err != nil {
			return nil, err
		}
		csp.End()
		if h := rep.Metrics.HistogramNamed("goal.us"); h != nil {
			if s := float64(h.Max()) / 1e6; s > r.goalMaxS {
				r.goalMaxS = s
			}
		}
		r.libs = append(r.libs, lib)
		r.data = append(r.data, buf.Bytes())
		r.reports = append(r.reports, rep)
	}
	return r, nil
}

// checkLibs checks a repetition's libraries: those of the first
// repetition (first == nil) against their kept files, those of every
// later one against the first's, byte for byte.
func checkLibs(cfg config, jobs []synthJob, first, r *synthRep, t *tally) {
	for i, j := range jobs {
		o := op{"library " + j.target, 0}
		switch {
		case first != nil:
			t.check(o, bytes.Equal(first.data[i], r.data[i]), "%s library differs between repetitions", j.target)
		case j.kept != "":
			want, err := os.ReadFile(filepath.Join(cfg.libDir, j.kept))
			t.check(o, err == nil && bytes.Equal(want, r.data[i]), "%s library differs from %s (%v)", j.target, j.kept, err)
		}
	}
}

// addSynthCases adds the repetition's libraries to the selection pass
// as their targets' "full" selectors; a job reproducing a kept library
// adds nothing, since the set-up already selects with that file.
func addSynthCases(e *env, jobs []synthJob, r *synthRep, tr *obs.Tracer) error {
	for i, j := range jobs {
		if j.kept != "" {
			continue
		}
		tgt, err := target.ByName(j.target)
		if err != nil {
			return err
		}
		lib, name := r.libs[i], j.target+"/synth"
		if j.extendHand {
			lib, name = tgt.Handwritten(lib.Width), j.target+"/hand+synth"
			if err := lib.Merge(r.libs[i]); err != nil {
				return err
			}
		}
		e.addCase(name, tgt, "full", lib, tr)
	}
	return nil
}

// ruleCyclesMean is the rule-weighted Report.MeanRuleCost of a
// repetition's libraries.
func (r *synthRep) ruleCyclesMean() float64 {
	sum, n := 0.0, 0
	for i, rep := range r.reports {
		k := len(r.libs[i].Rules)
		sum += rep.MeanRuleCost * float64(k)
		n += k
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
