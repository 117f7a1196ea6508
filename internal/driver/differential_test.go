package driver

import (
	"testing"
	"time"

	"selgen/internal/ir"
	"selgen/internal/isel"
	"selgen/internal/pattern"
	"selgen/internal/spec"
	"selgen/internal/x86"
)

// assertSelectorsAgree selects the whole synthetic workload with the
// indexed matcher and with the legacy linear scan over the same
// library, and demands byte-identical programs and equal coverage —
// the compiled-vs-linear equivalence the trie's soundness argument
// promises.
func assertSelectorsAgree(t *testing.T, name string, lib *pattern.Library) {
	t.Helper()
	goals := x86.Registry()
	compiled := isel.New(lib, goals, true)
	linear := isel.New(lib, goals, true)
	linear.Linear = true
	ops := ir.Ops()
	for _, prof := range spec.Profiles() {
		for _, g := range spec.Generate(prof, 8, ops, 7) {
			pc, cc, errC := compiled.Select(g)
			pl, cl, errL := linear.Select(g)
			if (errC == nil) != (errL == nil) {
				t.Fatalf("%s/%s: error mismatch: compiled %v, linear %v", name, g.Name, errC, errL)
			}
			if errC != nil {
				continue
			}
			if cc != cl {
				t.Fatalf("%s/%s: coverage mismatch: %+v vs %+v", name, g.Name, cc, cl)
			}
			if pc.String() != pl.String() {
				t.Fatalf("%s/%s: programs differ\n--- compiled ---\n%s\n--- linear ---\n%s",
					name, g.Name, pc.String(), pl.String())
			}
		}
	}
}

// TestDifferentialSynthesizedLibraries synthesizes real libraries (a
// quick setup and a trimmed slice of the full setup, so genuine
// multi-result, memory, and immediate patterns are represented) and
// checks compiled-vs-linear matcher equivalence on each.
func TestDifferentialSynthesizedLibraries(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes libraries")
	}
	if raceEnabled {
		// Synthesizing two libraries under the race detector does not
		// fit the targeted race pass's budget; matcher concurrency is
		// raced in internal/isel, and this test is about rule-library
		// shape, which the race detector does not change.
		t.Skip("synthesis under -race exceeds the race-pass budget")
	}
	quick, _, err := Run(QuickSetup(), Options{Width: 8, Seed: 1,
		MaxPatternsPerGoal: 16, PerGoalTimeout: scaledTimeout(90 * time.Second)})
	if err != nil {
		t.Fatalf("quick synthesis: %v", err)
	}
	assertSelectorsAgree(t, "quick", quick)

	// A trimmed full setup: the load/store and flags groups contribute
	// memory-result and cmp/jcc rules the quick setup lacks.
	trimmed := []Group{
		{Name: "Load/Store", Goals: x86.LoadStoreGroup([]x86.AM{{Base: true}}), MaxLen: 4, AllSizes: true},
		{Name: "Flags", Goals: x86.FlagsGroup(), MaxLen: 2, AllSizes: true},
	}
	full, _, err := Run(trimmed, Options{Width: 8, Seed: 1,
		MaxPatternsPerGoal: 8, PerGoalTimeout: scaledTimeout(90 * time.Second)})
	if err != nil {
		t.Fatalf("trimmed-full synthesis: %v", err)
	}
	// Layer the synthesized rules over the quick ones so specificity
	// ordering across groups is exercised too.
	for _, r := range quick.Rules {
		full.Add(r)
	}
	assertSelectorsAgree(t, "trimmed-full", full)
}
