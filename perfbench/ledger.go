package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one completed trace span: a name and an interval in
// microseconds since the trace epoch.
type span struct {
	name       string
	start, dur int64
}

func (s span) end() int64 { return s.start + s.dur }

// readChromeSpans extracts the complete ("X") events of a Chrome
// trace_event document as written by obs.WriteChromeTrace.
func readChromeSpans(r io.Reader) ([]span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("reading trace: %w", err)
	}
	var out []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			out = append(out, span{name: ev.Name, start: int64(ev.TS), dur: int64(ev.Dur)})
		}
	}
	return out, nil
}

// spanTimes sums, per span name, the spans' total durations and their
// self times. A span's self time is its duration minus the part of its
// interval its direct children cover. Spans nest by time — every
// workload runs one thing at a time, whatever logical thread the
// program records a span on — so a span is a child of the innermost
// open span whose interval contains its start. A child that ends after
// its parent (both are truncated to whole microseconds) is clipped to
// the parent's end.
func spanTimes(spans []span) (total, self map[string]int64) {
	s := append([]span(nil), spans...)
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].start != s[j].start {
			return s[i].start < s[j].start
		}
		return s[i].dur > s[j].dur
	})
	total = map[string]int64{}
	self = map[string]int64{}
	type open struct {
		span
		covered int64
	}
	var stack []open
	pop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		self[top.name] += top.dur - top.covered
	}
	for _, sp := range s {
		total[sp.name] += sp.dur
		for len(stack) > 0 && stack[len(stack)-1].end() <= sp.start {
			pop()
		}
		if len(stack) > 0 {
			parent := &stack[len(stack)-1]
			end := sp.end()
			if pe := parent.end(); end > pe {
				end = pe
			}
			parent.covered += end - sp.start
		}
		stack = append(stack, open{span: sp})
	}
	for len(stack) > 0 {
		pop()
	}
	return total, self
}

// spanLayer maps span names — the benchmark's own spans around its
// calls into the program, and the spans the program records itself —
// to the layer whose code runs during the span's self time. A name not
// listed is its own layer.
var spanLayer = map[string]string{
	spanRoot:        "bench",
	spanCheck:       "bench",
	"driver.Run":    "driver",
	"group":         "driver",
	"goal":          "cegis.enumerate",
	"multiset":      "cegis.encode",
	"synth":         "cegis.query",
	"verify":        "cegis.query",
	"pattern.Load":  "pattern",
	"isel.New":      "pattern",
	"isel.Select":   "isel",
	"isel.select":   "isel",
	"mach.Exec":     "mach",
	"firm.Exec":     "firm",
	"spec.Generate": "spec",
	"spec.Inputs":   "spec",
}

// maxLedgerError is how far the ledger's sum may stray from wall time.
const maxLedgerError = 0.05

// Benchmark span names.
const (
	spanRoot  = "bench"
	spanCheck = "bench.check"
)

// ledgerEntry is one layer's self time.
type ledgerEntry struct {
	layer string
	self  time.Duration
}

// ledger is the per-layer self-time table of a traced run.
type ledger struct {
	entries []ledgerEntry
	// wall is the traced region's wall time, taken with a stopwatch
	// outside every span.
	wall time.Duration
}

// buildLedger turns span self times into per-layer self times. SAT
// search and the SMT layer's own work record no spans, only latency
// histograms (sat.solve.us inside smt.check.us, both inside the synth
// and verify spans), so their sums are carved out of the cegis.query
// layer: sat = satSolve, smt = smtCheck − satSolve.
func buildLedger(self map[string]int64, smtCheck, satSolve time.Duration, wall time.Duration) ledger {
	byLayer := map[string]time.Duration{}
	for name, us := range self {
		layer, ok := spanLayer[name]
		if !ok {
			layer = name
		}
		byLayer[layer] += time.Duration(us) * time.Microsecond
	}
	if smtCheck > 0 || satSolve > 0 {
		byLayer["cegis.query"] -= smtCheck
		byLayer["smt"] += smtCheck - satSolve
		byLayer["sat"] += satSolve
	}
	l := ledger{wall: wall}
	for layer, d := range byLayer {
		l.entries = append(l.entries, ledgerEntry{layer, d})
	}
	sort.Slice(l.entries, func(i, j int) bool {
		if l.entries[i].self != l.entries[j].self {
			return l.entries[i].self > l.entries[j].self
		}
		return l.entries[i].layer < l.entries[j].layer
	})
	return l
}

// sumFrac is the sum of the layers' self times over the wall time. A
// negative self time means the spans did not nest (or a histogram sum
// exceeded the spans it should lie in); it is counted by magnitude, so
// an inconsistent ledger reads above 1 instead of cancelling out.
func (l ledger) sumFrac() float64 {
	if l.wall <= 0 {
		return 0
	}
	var sum time.Duration
	for _, e := range l.entries {
		if e.self < 0 {
			sum -= e.self
		} else {
			sum += e.self
		}
	}
	return float64(sum) / float64(l.wall)
}

// unattributed is the share of wall time no layer of the program
// claims: the self time of the benchmark's own spans, that is its own
// code between calls into the program. Self times split the root span
// exactly, so the ledger sums to about 1 whatever the layers do; this
// share is the part of that sum that can drift.
func (l ledger) unattributed() float64 {
	if l.wall <= 0 {
		return 0
	}
	for _, e := range l.entries {
		if e.layer == spanLayer[spanRoot] {
			return float64(e.self) / float64(l.wall)
		}
	}
	return 0
}

// write renders the ledger as a text table.
func (l ledger) write(w io.Writer) {
	fmt.Fprintf(w, "%-18s %12s %7s\n", "layer", "self_s", "share")
	for _, e := range l.entries {
		fmt.Fprintf(w, "%-18s %12.6f %6.2f%%\n", e.layer, e.self.Seconds(), 100*float64(e.self)/float64(l.wall))
	}
	fmt.Fprintf(w, "%-18s %12.6f %6.2f%% of wall %.6fs\n", "sum", l.sumFrac()*l.wall.Seconds(), 100*l.sumFrac(), l.wall.Seconds())
	fmt.Fprintln(w, strings.Repeat("-", 40))
}
