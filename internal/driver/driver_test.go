package driver

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// scaledTimeout widens a per-goal deadline when the race detector is
// on: instrumentation slows synthesis roughly an order of magnitude,
// and a deadline hit truncates the library, turning a timing artifact
// into a spurious missing-pattern failure.
func scaledTimeout(d time.Duration) time.Duration {
	if raceEnabled {
		return 10 * d
	}
	return d
}

// TestSatWorkersMatchesSequential: SatWorkers survives only as a
// compatibility field. A value of 1 runs the same sequential search as
// the default and yields the identical library; a larger value is
// rejected instead of being silently ignored.
func TestSatWorkersMatchesSequential(t *testing.T) {
	groups := QuickSetup()
	groups[0].Goals = groups[0].Goals[:2]
	opts := Options{Width: 8, Seed: 1, MaxPatternsPerGoal: 8,
		PerGoalTimeout: scaledTimeout(90 * time.Second)}
	seqLib, _, err := Run(groups, opts)
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	opts.SatWorkers = 1
	oneLib, _, err := Run(groups, opts)
	if err != nil {
		t.Fatalf("SatWorkers 1: %v", err)
	}
	if !reflect.DeepEqual(oneLib.Rules, seqLib.Rules) {
		t.Fatalf("SatWorkers 1 changed the library: %d vs %d rules", len(oneLib.Rules), len(seqLib.Rules))
	}
	opts.SatWorkers = 2
	if _, _, err := Run(groups, opts); err == nil || !strings.Contains(err.Error(), "SatWorkers") {
		t.Fatalf("SatWorkers 2: err = %v, want a rejection naming SatWorkers", err)
	}
}

func TestBasicSetupSynthesis(t *testing.T) {
	lib, rep, err := Run(BasicSetup(), Options{Width: 8, Seed: 1,
		MaxPatternsPerGoal: 16, PerGoalTimeout: scaledTimeout(5 * time.Minute)})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rep.Groups) != 1 || rep.Groups[0].Name != "Basic" {
		t.Fatalf("report shape: %+v", rep)
	}
	if rep.Total.Goals < 20 {
		t.Fatalf("basic setup goals: %d", rep.Total.Goals)
	}
	if len(lib.Rules) < rep.Total.Goals {
		t.Fatalf("expected at least one rule per goal: %d rules for %d goals",
			len(lib.Rules), rep.Total.Goals)
	}
	// Every basic goal must have at least one pattern.
	byGoal := map[string]int{}
	for _, r := range lib.Rules {
		byGoal[r.Goal]++
	}
	for _, g := range BasicSetup()[0].Goals {
		if byGoal[g.Name] == 0 {
			t.Errorf("goal %s has no patterns", g.Name)
		}
	}
	var buf bytes.Buffer
	rep.WriteTable(&buf)
	if !strings.Contains(buf.String(), "Basic") || !strings.Contains(buf.String(), "Total") {
		t.Fatalf("table rendering:\n%s", buf.String())
	}
}

func TestBMISetupSynthesis(t *testing.T) {
	lib, rep, err := Run(BMISetup(), Options{Width: 8, Seed: 1,
		MaxPatternsPerGoal: 16, PerGoalTimeout: scaledTimeout(90 * time.Second)})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Total.Goals != 7 {
		t.Fatalf("BMI goals: %d", rep.Total.Goals)
	}
	byGoal := map[string]int{}
	for _, r := range lib.Rules {
		byGoal[r.Goal]++
	}
	for _, g := range []string{"andn", "blsi", "blsmsk", "blsr", "btc", "btr", "bts"} {
		if byGoal[g] == 0 {
			t.Errorf("BMI goal %s has no patterns", g)
		}
	}
	// andn has (at least) the four §1 intro patterns.
	if byGoal["andn"] < 4 {
		t.Errorf("andn should have >= 4 patterns, got %d", byGoal["andn"])
	}
}

func TestSetupShapes(t *testing.T) {
	full := FullSetup()
	names := map[string]bool{}
	for _, g := range full {
		names[g.Name] = true
		if len(g.Goals) == 0 {
			t.Fatalf("group %s empty", g.Name)
		}
	}
	for _, want := range []string{"Basic", "Load/Store", "Unary", "Binary", "Flags", "BMI"} {
		if !names[want] {
			t.Fatalf("full setup missing group %s", want)
		}
	}
}
