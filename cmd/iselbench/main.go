// Command iselbench reproduces Table 1 of the paper: it compiles the
// synthetic SPEC-CINT2000 workloads with the handwritten selector and
// with prototype selectors generated from the basic and full
// synthesized rule libraries, runs the selected code in the cycle-cost
// simulator (verifying all selectors compute what the IR computes),
// and prints the coverage and runtime-ratio table.
//
// Usage:
//
//	iselbench                        # synthesize basic+full, then run Table 1
//	iselbench -basic b.json -full f.json
//	iselbench -trace t.json          # Chrome trace with isel.select spans
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"selgen/internal/driver"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/target"
	"selgen/internal/telemetry"
)

// loadOrSynthesize reads the library at path, or synthesizes the
// groups with opts when path is empty.
func loadOrSynthesize(path, what string, groups []driver.Group, opts driver.Options) (*pattern.Library, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return pattern.Load(f)
	}
	fmt.Fprintf(os.Stderr, "synthesizing %s library (pass -%s to load a pre-built one)...\n", what, what)
	lib, rep, err := driver.Run(groups, opts)
	if err == nil {
		rep.WriteTable(os.Stderr)
	}
	return lib, err
}

func main() {
	var (
		tgtName   = flag.String("target", "x86", "machine backend for the Table 1 run: x86 or riscv")
		width     = flag.Int("width", 8, "word width")
		basicPath = flag.String("basic", "", "basic rule library JSON (synthesized when empty)")
		fullPath  = flag.String("full", "", "full rule library JSON (synthesized when empty)")
		seed      = flag.Int64("seed", 99, "workload seed")
		trace     = flag.String("trace", "", "write a Chrome trace_event JSON file of the Table 1 run (isel.select spans)")
		costAware = flag.Bool("cost-aware", true, "synthesize libraries with cost-ordered enumeration and dominance pruning (false = exhaustive size-major ablation)")
		status    = flag.String("status", "", "serve live telemetry (Prometheus /metrics, per-goal /goals, /debug/pprof) on this address during library synthesis and the Table 1 run (empty = no server)")
	)
	flag.Parse()

	tgt, err := target.ByName(*tgtName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
		os.Exit(2)
	}

	synthOpts := driver.Options{
		Target:             tgt.Name,
		Width:              *width,
		PerGoalTimeout:     2 * time.Minute,
		MaxPatternsPerGoal: 48,
		Seed:               1,
		DisableCostAware:   !*costAware,
	}
	tracer := obs.New()
	if *trace != "" {
		tracer.EnableTrace()
	}
	if *status != "" {
		// Without -status, driver.Run creates its own metrics-only tracer.
		synthOpts.Obs = tracer
		synthOpts.State = driver.NewRunState()
		statusSrv, err := telemetry.Start(*status, tracer, synthOpts.State)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
			os.Exit(1)
		}
		defer statusSrv.Close()
		fmt.Fprintf(os.Stderr, "iselbench: telemetry listening on %s (/metrics /goals /debug/pprof)\n", statusSrv.URL())
	}

	basicGroups, err := driver.SetupFor(tgt.Name, "basic")
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
		os.Exit(2)
	}
	fullGroups, err := driver.SetupFor(tgt.Name, "full")
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
		os.Exit(2)
	}
	basicLib, err := loadOrSynthesize(*basicPath, "basic", basicGroups, synthOpts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: basic library: %v\n", err)
		os.Exit(1)
	}
	fullLib, err := loadOrSynthesize(*fullPath, "full", fullGroups, synthOpts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: full library: %v\n", err)
		os.Exit(1)
	}

	t, err := driver.RunTable1(tgt, *width, *seed, basicLib, fullLib, tracer)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
		os.Exit(1)
	}
	t.Write(os.Stdout)

	if *trace != "" {
		tf, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
			os.Exit(1)
		}
		if err := tracer.WriteChromeTrace(tf); err != nil {
			fmt.Fprintf(os.Stderr, "iselbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		if err := tf.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "iselbench: trace with %d events written to %s\n", tracer.NumEvents(), *trace)
	}
}
