package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"selgen/internal/driver"
)

// keptLib is one library the select workload reads from --libs. The
// files are written by --genlibs, which reproduces them byte for byte:
// every synthesis budget is deterministic — a per-query conflict bound
// and a per-goal pattern cap, no wall-clock deadline — so the select
// workload's input stays fixed while synthesis changes, and moves only
// with pattern, isel and mach.
type keptLib struct {
	file, target, setup string
	// role is the library's column in Table 1: "basic" or "full".
	role string
}

var keptLibs = []keptLib{
	{"x86_basic.json", "x86", "basic", "basic"},
	{"riscv_full.json", "riscv", "full", "full"},
	{"x86_full.json", "x86", "full", "full"},
}

// keptOptions are the synthesis settings of every kept library.
// Parallel changes only wall time: the driver merges goal results in
// goal order, and no budget depends on the clock.
func keptOptions(target string, parallel int) driver.Options {
	return driver.Options{
		Target:             target,
		Width:              8,
		Seed:               1,
		MaxPatternsPerGoal: 24,
		QueryConflicts:     100_000,
		Parallel:           parallel,
		SatWorkers:         1,
	}
}

// synthesizeKept runs one kept library's synthesis and returns the
// library file's bytes.
func synthesizeKept(k keptLib, parallel int) ([]byte, error) {
	groups, err := driver.SetupFor(k.target, k.setup)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	lib, rep, err := driver.Run(groups, keptOptions(k.target, parallel))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.file, err)
	}
	if t := rep.Total; t.OK != t.Goals {
		return nil, fmt.Errorf("%s: %d of %d goals not OK", k.file, t.Goals-t.OK, t.Goals)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d rules from %d goals in %s\n",
		k.file, len(lib.Rules), rep.Total.Goals, time.Since(start).Round(time.Second))
	var buf bytes.Buffer
	if err := lib.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// genLibs regenerates every kept library into dir, one goal per CPU.
func genLibs(dir string) error {
	for _, k := range keptLibs {
		data, err := synthesizeKept(k, runtime.NumCPU())
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, k.file), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
