package main

import (
	"fmt"
	"sort"
	"time"

	"selgen/internal/firm"
	"selgen/internal/isel"
	"selgen/internal/mach"
	"selgen/internal/obs"
)

// caseResult is one selector's share of a selection pass.
type caseResult struct {
	// samples holds Select's time per graph node, one per call.
	samples      []float64
	selectT      time.Duration
	calls, nodes int64
	instrs       int64
	// stats is the selector's effort during this pass.
	stats isel.SelStats
	// cycles and cov are per spec profile.
	cycles map[string]float64
	cov    map[string]*isel.Coverage
}

// pass is one selection of every graph with every selector.
type pass map[*selCase]*caseResult

// selectPass selects every graph with every selector, executes each
// selected program in mach and compares it with the firm reference
// run: an error or a mismatch fails the (graph, selector) operation.
func (e *env) selectPass(tr *obs.Tracer, t *tally) pass {
	p := pass{}
	before := map[*selCase]isel.SelStats{}
	for _, c := range e.cases {
		p[c] = &caseResult{cycles: map[string]float64{}, cov: map[string]*isel.Coverage{}}
		before[c] = c.sel.Stats()
	}
	for i, g := range e.graphs {
		for _, c := range e.cases {
			r := p[c]
			sp := tr.Span(0, "isel.Select")
			start := time.Now()
			prog, cov, err := c.sel.Select(g)
			d := time.Since(start)
			sp.End()
			o := op{c.name, i}
			if !t.check(o, err == nil, "%s on %s: select: %v", c.name, g.Name, err) {
				continue
			}
			sp = tr.Span(0, "mach.Exec")
			got, err := prog.Exec(e.params[i], e.mems[i])
			sp.End()
			t.check(o, err == nil && sameResult(e.ref[i], got),
				"%s on %s: selected program disagrees with the firm reference (%v)", c.name, g.Name, err)
			r.samples = append(r.samples, float64(d.Nanoseconds())/float64(e.nodes[i]))
			r.selectT += d
			r.calls++
			r.nodes += int64(e.nodes[i])
			r.instrs += int64(prog.Size())
			r.cycles[e.prof[i]] += float64(prog.Cycles())
			if r.cov[e.prof[i]] == nil {
				r.cov[e.prof[i]] = &isel.Coverage{}
			}
			r.cov[e.prof[i]].Add(cov)
		}
	}
	for _, c := range e.cases {
		s, s0 := c.sel.Stats(), before[c]
		p[c].stats = isel.SelStats{
			Nodes:      s.Nodes - s0.Nodes,
			RulesTried: s.RulesTried - s0.RulesTried,
			TrieVisits: s.TrieVisits - s0.TrieVisits,
			Matches:    s.Matches - s0.Matches,
			Fallbacks:  s.Fallbacks - s0.Fallbacks,
		}
	}
	return p
}

// sameResult compares a selected program's results and final memory
// with the reference interpreter's.
func sameResult(ref *firm.ExecResult, got *mach.ExecResult) bool {
	if len(ref.Values) != len(got.Values) || len(ref.Mem) != len(got.Mem) {
		return false
	}
	for i, v := range ref.Values {
		if got.Values[i] != v {
			return false
		}
	}
	for a, v := range ref.Mem {
		if gv, ok := got.Mem[a]; !ok || gv != v {
			return false
		}
	}
	return true
}

// samples pools the per-call ns/node samples of the synthesized-library
// selectors (role "hand" excluded) over passes.
func samples(ps []pass) []float64 {
	var out []float64
	for _, p := range ps {
		for c, r := range p {
			if c.role != "hand" {
				out = append(out, r.samples...)
			}
		}
	}
	return out
}

// selSummary holds a pass's selection figures: the quality ratios of
// Table 1 and the deterministic effort counts.
type selSummary struct {
	cyclesVsHand, coverage               float64
	rulesTriedPerNode, trieVisitsPerNode float64
	fallbackFrac, instrsPerGraph         float64
	compiledRules                        float64
	// nsPerNode and handNsPerNode are mean Select time per node of the
	// synthesized-library and the handwritten selectors.
	nsPerNode, handNsPerNode float64
}

// summarize computes a pass's figures. cycles_vs_hand is the geometric
// mean, over (target, profile), of the full library's simulated cycles
// over the handwritten library's; coverage the geometric mean of the
// full library's coverage. Effort counts cover every synthesized-library
// selector (basic and full).
func summarize(p pass) (selSummary, error) {
	var s selSummary
	full, hand := map[string]float64{}, map[string]float64{}
	var covs []float64
	var st isel.SelStats
	var calls, instrs, nodes, handNodes int64
	var selT, handT time.Duration
	cases := make([]*selCase, 0, len(p))
	for c := range p {
		cases = append(cases, c)
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].name < cases[j].name })
	for _, c := range cases {
		r := p[c]
		if c.role == "hand" {
			handT += r.selectT
			handNodes += r.nodes
			for prof, cy := range r.cycles {
				hand[c.target+"/"+prof] = cy
			}
			continue
		}
		selT += r.selectT
		nodes += r.nodes
		calls += r.calls
		instrs += r.instrs
		st.Nodes += r.stats.Nodes
		st.RulesTried += r.stats.RulesTried
		st.TrieVisits += r.stats.TrieVisits
		st.Fallbacks += r.stats.Fallbacks
		s.compiledRules += float64(c.sel.Compiled.NumRules())
		if c.role != "full" {
			continue
		}
		profs := make([]string, 0, len(r.cov))
		for prof := range r.cov {
			profs = append(profs, prof)
		}
		sort.Strings(profs)
		for _, prof := range profs {
			full[c.target+"/"+prof] = r.cycles[prof]
			covs = append(covs, r.cov[prof].Ratio())
		}
	}
	var err error
	if s.cyclesVsHand, err = ratioGeomean(full, hand); err != nil {
		return s, fmt.Errorf("cycles_vs_hand: %w", err)
	}
	if s.coverage, err = geomean(covs); err != nil {
		return s, fmt.Errorf("coverage: %w", err)
	}
	if st.Nodes == 0 || calls == 0 || nodes == 0 || handNodes == 0 {
		return s, fmt.Errorf("selection pass selected nothing")
	}
	s.rulesTriedPerNode = float64(st.RulesTried) / float64(st.Nodes)
	s.trieVisitsPerNode = float64(st.TrieVisits) / float64(st.Nodes)
	s.fallbackFrac = float64(st.Fallbacks) / float64(st.Nodes)
	s.instrsPerGraph = float64(instrs) / float64(calls)
	s.nsPerNode = float64(selT.Nanoseconds()) / float64(nodes)
	s.handNsPerNode = float64(handT.Nanoseconds()) / float64(handNodes)
	return s, nil
}

// counts are the deterministic effort figures of a selection pass,
// which must repeat exactly from pass to pass.
func (s selSummary) counts() map[string]float64 {
	return map[string]float64{
		"isel.rules_tried_per_node":    s.rulesTriedPerNode,
		"pattern.trie_visits_per_node": s.trieVisitsPerNode,
		"mach.instrs_per_graph":        s.instrsPerGraph,
		"cycles_vs_hand":               s.cyclesVsHand,
		"coverage":                     s.coverage,
	}
}
