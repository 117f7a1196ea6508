package isel

import (
	"math/rand"
	"sync"
	"testing"

	"selgen/internal/firm"
	"selgen/internal/ir"
	"selgen/internal/pattern"
	"selgen/internal/sem"
	"selgen/internal/spec"
	"selgen/internal/x86"
)

// workloadGraphs generates the synthetic SPEC workload suite (a small
// slice of it in -short mode).
func workloadGraphs(t *testing.T) []*firm.Graph {
	t.Helper()
	profiles := spec.Profiles()
	if testing.Short() {
		profiles = profiles[:3]
	}
	var graphs []*firm.Graph
	for _, p := range profiles {
		graphs = append(graphs, spec.Generate(p, w, ir.Ops(), 7)...)
	}
	return graphs
}

// assertEquivalent selects every graph with both selectors and demands
// identical outcomes: same error status, same coverage, byte-identical
// programs.
func assertEquivalent(t *testing.T, compiled, linear *Selector, graphs []*firm.Graph) {
	t.Helper()
	for _, g := range graphs {
		pc, cc, errC := compiled.Select(g)
		pl, cl, errL := linear.Select(g)
		if (errC == nil) != (errL == nil) {
			t.Fatalf("%s: error mismatch: compiled %v, linear %v", g.Name, errC, errL)
		}
		if errC != nil {
			continue
		}
		if cc != cl {
			t.Fatalf("%s: coverage mismatch: compiled %+v, linear %+v", g.Name, cc, cl)
		}
		if pc.String() != pl.String() {
			t.Fatalf("%s: selected programs differ\n--- compiled ---\n%s\n--- linear ---\n%s",
				g.Name, pc.String(), pl.String())
		}
	}
}

// linearized returns a Linear-scan twin of a fresh selector over lib.
func linearized(lib *pattern.Library, fallback bool) (*Selector, *Selector) {
	compiled := New(lib, x86.Registry(), fallback)
	linear := New(lib, x86.Registry(), fallback)
	linear.Linear = true
	return compiled, linear
}

func TestDifferentialHandwritten(t *testing.T) {
	graphs := workloadGraphs(t)
	compiled, linear := linearized(HandwrittenLibrary(w), true)
	assertEquivalent(t, compiled, linear, graphs)
	sc, sl := compiled.Stats(), linear.Stats()
	if sc.Matches != sl.Matches || sc.Fallbacks != sl.Fallbacks {
		t.Fatalf("match/fallback counts diverge: compiled %+v, linear %+v", sc, sl)
	}
	if sc.RulesTried >= sl.RulesTried {
		t.Fatalf("trie lookup should try fewer rules than the linear scan: %d vs %d",
			sc.RulesTried, sl.RulesTried)
	}
	if sc.TrieVisits == 0 {
		t.Fatalf("compiled selector reported no trie visits")
	}
}

// TestIndexedEffortFlatInLibrarySize pads the handwritten library with
// never-matching rules from 100 to 1000 and checks, on the effort
// counters alone (no clock), that the indexed matcher's rules tried per
// node stays flat while a Linear twin's grows with the library.
func TestIndexedEffortFlatInLibrarySize(t *testing.T) {
	graphs := workloadGraphs(t)
	type point struct {
		compiled        int
		indexed, linear float64 // rules tried per node
	}
	measure := func(n int) point {
		indexed, linear := linearized(PadLibrary(HandwrittenLibrary(w), w, n), true)
		for _, g := range graphs {
			for _, s := range []*Selector{indexed, linear} {
				if _, _, err := s.Select(g); err != nil {
					t.Fatalf("pad %d: %s: %v", n, g.Name, err)
				}
			}
		}
		si, sl := indexed.Stats(), linear.Stats()
		if si.Nodes == 0 || si.Nodes != sl.Nodes {
			t.Fatalf("pad %d: node counts: indexed %d, linear %d", n, si.Nodes, sl.Nodes)
		}
		return point{
			compiled: indexed.Compiled.NumRules(),
			indexed:  float64(si.RulesTried) / float64(si.Nodes),
			linear:   float64(sl.RulesTried) / float64(sl.Nodes),
		}
	}
	p100, p1000 := measure(100), measure(1000)
	if p1000.compiled <= p100.compiled {
		t.Fatalf("padding did not grow the compiled library: %d at 100, %d at 1000",
			p100.compiled, p1000.compiled)
	}
	// Both libraries hold the whole handwritten library plus padding
	// whose trie keys the workload never produces, so a 10× library
	// must leave the indexed match attempts per node essentially flat.
	if p1000.indexed > 2*p100.indexed+1 {
		t.Fatalf("indexed rules tried/node grew with library size: %.2f at 100, %.2f at 1000",
			p100.indexed, p1000.indexed)
	}
	// The linear scan must show the growth the index avoids.
	if p1000.linear < 10*p1000.indexed {
		t.Fatalf("linear scan should try far more rules than the index at 1000: %.2f vs %.2f",
			p1000.linear, p1000.indexed)
	}
	t.Logf("rules tried/node: indexed %.2f at 100, %.2f at 1000; linear %.2f at 1000",
		p100.indexed, p1000.indexed, p1000.linear)
}

func TestDifferentialNoFallback(t *testing.T) {
	// Without fallback some graphs fail; error status must still agree.
	graphs := workloadGraphs(t)
	compiled, linear := linearized(HandwrittenLibrary(w), false)
	assertEquivalent(t, compiled, linear, graphs)
}

// fuzzOps are the value-typed ops random patterns are built from,
// keyed by arity.
var fuzzOps = map[int][]string{
	1: {"Not", "Minus"},
	2: {"Add", "Sub", "Mul", "And", "Or", "Eor", "Shl", "Shr", "Shrs"},
}

// fuzzLibrary generates a random-but-valid rule library: patterns have
// correct per-op arity and internals, arguments and results shaped
// like their goal instruction. Semantics are deliberately unchecked —
// the differential test compares selector outputs, it never executes.
func fuzzLibrary(seed int64, n int) *pattern.Library {
	rng := rand.New(rand.NewSource(seed))
	goals := []struct {
		name  string
		nargs int
		imm   int // index of an imm arg, -1 if none
	}{
		{"add", 2, -1}, {"sub", 2, -1}, {"and", 2, -1}, {"or", 2, -1},
		{"xor", 2, -1}, {"imul", 2, -1}, {"not", 1, -1}, {"neg", 1, -1},
		{"add.imm", 2, 1}, {"and.imm", 2, 1}, {"or.imm", 2, 1},
		{"andn", 2, -1}, {"blsr", 1, -1},
	}
	lib := &pattern.Library{Width: w}
	for len(lib.Rules) < n {
		gl := goals[rng.Intn(len(goals))]
		kinds := make([]sem.Kind, gl.nargs)
		for i := range kinds {
			kinds[i] = sem.KindValue
		}
		if gl.imm >= 0 {
			kinds[gl.imm] = sem.KindImm
		}
		p := pattern.Pattern{ArgKinds: kinds}
		// Value sources usable as node arguments. Imm args may feed
		// nodes too (the matcher then requires a Const producer).
		var srcs []pattern.ValueRef
		for i := range kinds {
			srcs = append(srcs, pattern.ValueRef{Kind: pattern.RefArg, Index: i})
		}
		nNodes := 1 + rng.Intn(4)
		for ni := 0; ni < nNodes; ni++ {
			var node pattern.Node
			if rng.Intn(6) == 0 {
				node = pattern.Node{Op: "Const", Internals: []uint64{uint64(rng.Intn(1 << w))}}
			} else {
				arity := 1 + rng.Intn(2)
				ops := fuzzOps[arity]
				node = pattern.Node{Op: ops[rng.Intn(len(ops))]}
				for a := 0; a < arity; a++ {
					node.Args = append(node.Args, srcs[rng.Intn(len(srcs))])
				}
			}
			p.Nodes = append(p.Nodes, node)
			srcs = append(srcs, pattern.ValueRef{Kind: pattern.RefNode, Index: ni})
		}
		// Root at the last non-Const node so most rules are indexable;
		// Const-rooted rules are valid too, keep a few.
		root := len(p.Nodes) - 1
		p.Results = []pattern.ValueRef{{Kind: pattern.RefNode, Index: root}}
		if err := p.Validate(ir.Ops()); err != nil {
			continue // e.g. all-Const pattern with an unused arg; skip
		}
		lib.Add(pattern.Rule{Goal: gl.name, GoalCost: 1 + rng.Intn(3), Pattern: p})
	}
	return lib
}

func TestDifferentialFuzzLibraries(t *testing.T) {
	graphs := workloadGraphs(t)
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		lib := fuzzLibrary(seed, 120)
		compiled, linear := linearized(lib, true)
		assertEquivalent(t, compiled, linear, graphs)
	}
}

func TestDifferentialFuzzMixedWithHandwritten(t *testing.T) {
	// Fuzz rules layered over the handwritten library: specificity
	// ordering between real and random rules must agree across both
	// matchers.
	graphs := workloadGraphs(t)
	lib := HandwrittenLibrary(w)
	for _, r := range fuzzLibrary(99, 80).Rules {
		lib.Add(r)
	}
	compiled, linear := linearized(lib, true)
	assertEquivalent(t, compiled, linear, graphs)
}

// TestConcurrentSelect drives one Selector from several goroutines
// (run under -race in CI) and checks every goroutine sees the same
// programs as a fresh sequential selector.
func TestConcurrentSelect(t *testing.T) {
	graphs := workloadGraphs(t)
	shared := New(HandwrittenLibrary(w), x86.Registry(), true)
	want := make([]string, len(graphs))
	ref := New(HandwrittenLibrary(w), x86.Registry(), true)
	for i, g := range graphs {
		p, _, err := ref.Select(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		want[i] = p.String()
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i, g := range graphs {
				p, _, err := shared.Select(g)
				if err != nil {
					errs[wi] = err
					return
				}
				if p.String() != want[i] {
					t.Errorf("worker %d: %s: program differs from sequential run", wi, g.Name)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	for wi, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", wi, err)
		}
	}
	st := shared.Stats()
	if st.Nodes == 0 || st.Matches == 0 {
		t.Fatalf("shared selector recorded no work: %+v", st)
	}
}

// TestNewLeavesCallerLibraryUntouched pins the satellite fix: New must
// not expand or re-sort the caller's library.
func TestNewLeavesCallerLibraryUntouched(t *testing.T) {
	lib := HandwrittenLibrary(w)
	nRules := len(lib.Rules)
	goals := make([]string, nRules)
	for i, r := range lib.Rules {
		goals[i] = r.Goal
	}
	s := New(lib, x86.Registry(), true)
	g := newG("f")
	x := g.Param(sem.KindValue)
	y := g.Param(sem.KindValue)
	g.Return(firm.Ref{Node: g.New("Add", x, y)})
	if _, _, err := s.Select(g); err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(lib.Rules) != nRules {
		t.Fatalf("Select expanded the caller's library: %d → %d rules", nRules, len(lib.Rules))
	}
	for i, r := range lib.Rules {
		if r.Goal != goals[i] {
			t.Fatalf("Select re-sorted the caller's library (rule %d: %s → %s)", i, goals[i], r.Goal)
		}
	}
}
