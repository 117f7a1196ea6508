// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat tradition: two-watched-literal propagation, VSIDS
// variable activity, phase saving, first-UIP clause learning with
// recursive minimization, Luby restarts, and activity-based deletion of
// learnt clauses.
//
// The solver is the decision procedure underlying the QF_BV SMT solver in
// internal/smt (via bit-blasting in internal/bitblast); the CGO'18 paper
// reproduced by this repository uses Z3 restricted to QF_BV, which
// internally does the same bit-blast-and-SAT.
package sat

import (
	"errors"
	"fmt"
	"time"

	"selgen/internal/failpoint"
	"selgen/internal/obs"
)

// Var is a propositional variable, numbered from 0.
type Var int

// Lit is a literal: variable 2*v for the positive phase, 2*v+1 for the
// negative phase. The zero value is the positive literal of variable 0.
type Lit int

// MkLit builds a literal from a variable and a sign (true = negated).
func MkLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negative.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal in DIMACS style (1-based, minus for negative).
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", int(l.Var())+1)
	}
	return fmt.Sprintf("%d", int(l.Var())+1)
}

// lbool is a three-valued boolean.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means the solver gave up (budget exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// ErrBudget is returned by Solve when the conflict or time budget set in
// Options is exhausted before a definite answer is reached.
var ErrBudget = errors.New("sat: budget exhausted")

// clause is a disjunction of literals. Learnt clauses carry an activity
// for the reduction heuristic.
type clause struct {
	lits     []Lit
	activity float64
	learnt   bool
	deleted  bool
}

// watcher pairs a watched clause with a "blocker" literal whose truth
// makes visiting the clause unnecessary.
type watcher struct {
	cref    int
	blocker Lit
}

// Options configure a Solve call. The zero value means "no limits".
type Options struct {
	// MaxConflicts aborts the search after this many conflicts (0 = no limit).
	MaxConflicts int64
	// Deadline aborts the search at this time (zero = no deadline).
	Deadline time.Time
	// Obs, when non-nil, receives per-solve effort deltas (sat.decisions,
	// sat.propagations, sat.conflicts, sat.restarts counters) and the
	// sat.solve.us latency histogram.
	Obs *obs.Tracer
	// Faults, when non-nil, arms this layer's failpoints
	// (failpoint.SatSpuriousTimeout makes Solve report ErrBudget
	// without searching). Nil-safe like Obs.
	Faults *failpoint.Registry
}

// Stats holds cumulative solver statistics.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64
	Removed      int64
}

// Solver is a CDCL SAT solver. Create one with New, add variables with
// NewVar and clauses with AddClause, then call Solve. A solver may be
// reused for multiple Solve calls (incremental solving under assumptions).
type Solver struct {
	clauses []int // indices of problem clauses in arena
	learnts []int // indices of learnt clauses in arena
	arena   []clause

	watches [][]watcher // watches[lit] = clauses watching lit

	// assignLit is indexed by literal: lTrue if that literal is true,
	// lFalse if false, lUndef if unassigned. Both phases are written on
	// every assignment so value() is a single array read.
	assignLit []lbool
	polarity  []bool // saved phase per variable
	level     []int  // decision level per variable
	reason    []int  // antecedent clause per variable (-1 = decision)

	trail    []Lit
	trailLim []int // trail index per decision level
	qhead    int

	activity []float64
	varInc   float64
	order    varHeap

	claInc float64

	ok    bool // false once the clause set is known unsat at level 0
	model []bool

	seen   []byte
	toClr  []Var
	stamps []int

	// Scratch buffers reused across calls (conflict analysis and clause
	// normalization run once per conflict / per added clause, so a fresh
	// allocation each time is measurable GC pressure).
	addBuf    []Lit
	learntBuf []Lit
	origBuf   []Var
	stackBuf  []Var

	Stats Stats
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true}
	s.order.s = s
	return s
}

// NumVars returns the number of variables allocated so far.
func (s *Solver) NumVars() int { return len(s.assignLit) / 2 }

// NumClauses returns the number of problem clauses added.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NewVar allocates a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assignLit) / 2)
	s.assignLit = append(s.assignLit, lUndef, lUndef)
	s.polarity = append(s.polarity, true) // default phase: false (negated)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, 0)
	if n := len(s.watches); n+2 <= cap(s.watches) {
		// Regrowing after Recycle: reuse the slot's retained watcher
		// arrays instead of discarding them.
		s.watches = s.watches[:n+2]
		s.watches[n] = s.watches[n][:0]
		s.watches[n+1] = s.watches[n+1][:0]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.order.insert(v)
	return v
}

// Recycle resets the solver to its freshly-constructed logical state
// while retaining the memory of its previous life: the clause arena,
// watch lists, and per-variable buffers keep their capacity. Callers
// that repeatedly rebuild solvers of a similar shape (e.g. the SMT
// facade's garbage-collection rebuilds, one per synthesis multiset)
// would otherwise re-grow every internal slice from scratch each time.
func (s *Solver) Recycle() {
	s.clauses = s.clauses[:0]
	s.learnts = s.learnts[:0]
	s.arena = s.arena[:0] // slots (and their lits arrays) are reused by allocClause
	w := s.watches[:cap(s.watches)]
	for i := range w {
		w[i] = w[i][:0]
	}
	s.watches = s.watches[:0]
	// Per-variable slices need no clearing: NewVar writes every revealed
	// slot explicitly when it re-extends them.
	s.assignLit = s.assignLit[:0]
	s.polarity = s.polarity[:0]
	s.level = s.level[:0]
	s.reason = s.reason[:0]
	s.activity = s.activity[:0]
	s.seen = s.seen[:0]
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.order.heap = s.order.heap[:0]
	s.order.indices = s.order.indices[:0]
	s.varInc = 1
	s.claInc = 1
	s.ok = true
	s.model = s.model[:0]
	s.toClr = s.toClr[:0]
	s.stamps = s.stamps[:0]
	s.Stats = Stats{}
}

func (s *Solver) value(l Lit) lbool { return s.assignLit[l] }

// varValue returns the variable's assignment (positive phase).
func (s *Solver) varValue(v Var) lbool { return s.assignLit[MkLit(v, false)] }

// AddClause adds a clause. It returns false if the solver detects
// top-level unsatisfiability (then the solver stays unusable and Solve
// returns Unsat). Literals must refer to variables already allocated.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called during search")
	}
	// Normalize: sort-free dedup, drop false lits, detect tautology/sat.
	out := s.addBuf[:0]
	for _, l := range lits {
		if int(l.Var()) >= s.NumVars() {
			panic(fmt.Sprintf("sat: clause uses unallocated variable %d", l.Var()))
		}
		switch s.value(l) {
		case lTrue:
			return true // clause already satisfied at level 0
		case lFalse:
			continue // drop falsified literal
		}
		dup := false
		for _, m := range out {
			if m == l {
				dup = true
				break
			}
			if m == l.Not() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.addBuf = out[:0]
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], -1)
		if s.propagate() != -1 {
			s.ok = false
			return false
		}
		return true
	}
	cref := s.allocClause(out, false)
	s.clauses = append(s.clauses, cref)
	s.attachClause(cref)
	return true
}

// allocClause copies lits into a (possibly recycled) arena slot, so
// callers may pass reused scratch buffers.
func (s *Solver) allocClause(lits []Lit, learnt bool) int {
	if n := len(s.arena); n < cap(s.arena) {
		s.arena = s.arena[:n+1]
		c := &s.arena[n]
		c.lits = append(c.lits[:0], lits...)
		c.activity = 0
		c.learnt = learnt
		c.deleted = false
		return n
	}
	s.arena = append(s.arena, clause{lits: append([]Lit(nil), lits...), learnt: learnt})
	return len(s.arena) - 1
}

// Simplify removes clauses satisfied at decision level 0 from the
// problem and learnt databases, detaching them from the watch lists.
// It must be called between Solve calls (decision level 0). Callers
// that retract assertion groups by fixing an activation literal false
// should Simplify afterwards so the retired clauses stop burdening
// propagation.
func (s *Solver) Simplify() {
	if !s.ok || s.decisionLevel() != 0 {
		return
	}
	s.clauses = s.simplifyList(s.clauses)
	s.learnts = s.simplifyList(s.learnts)
}

func (s *Solver) simplifyList(refs []int) []int {
	kept := refs[:0]
	for _, cref := range refs {
		c := &s.arena[cref]
		if c.deleted {
			continue
		}
		sat0 := false
		for _, l := range c.lits {
			if s.value(l) == lTrue {
				sat0 = true
				break
			}
		}
		if sat0 && !s.locked(cref) {
			s.detachClause(cref)
			c.deleted = true
			s.Stats.Removed++
		} else {
			kept = append(kept, cref)
		}
	}
	return kept
}

func (s *Solver) attachClause(cref int) {
	c := &s.arena[cref]
	w0, w1 := c.lits[0], c.lits[1]
	s.watches[w0.Not()] = append(s.watches[w0.Not()], watcher{cref, w1})
	s.watches[w1.Not()] = append(s.watches[w1.Not()], watcher{cref, w0})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from int) {
	v := l.Var()
	s.assignLit[l] = lTrue
	s.assignLit[l^1] = lFalse
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the index of a
// conflicting clause, or -1 if no conflict arises.
func (s *Solver) propagate() int {
	conflict := -1
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		j := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := &s.arena[w.cref]
			lits := c.lits
			// Ensure the falsified literal is lits[1].
			falseLit := p.Not()
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				ws[j] = watcher{w.cref, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nw := lits[1].Not()
					s.watches[nw] = append(s.watches[nw], watcher{w.cref, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{w.cref, first}
			j++
			if s.value(first) == lFalse {
				conflict = w.cref
				s.qhead = len(s.trail)
				// Copy remaining watchers back.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				break
			}
			s.uncheckedEnqueue(first, w.cref)
		}
		s.watches[p] = ws[:j]
		if conflict != -1 {
			return conflict
		}
	}
	return -1
}

// analyze performs first-UIP conflict analysis and returns the learnt
// clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(conflict int) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // [0] holds the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	cref := conflict
	for {
		c := &s.arena[cref]
		if c.learnt {
			s.bumpClause(cref)
		}
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.seen[v] = 1
			s.bumpVar(v)
			if s.level[v] >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Next literal to resolve on.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = 0
		counter--
		if counter == 0 {
			break
		}
		cref = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Clause minimization: drop literals implied by the rest. Snapshot
	// the vars first: compaction overwrites dropped literals in place,
	// and every mark must be cleared afterwards.
	origVars := s.origBuf[:0]
	for _, l := range learnt {
		origVars = append(origVars, l.Var())
		s.seen[l.Var()] = 1
	}
	s.origBuf = origVars[:0]
	jj := 1
	for i := 1; i < len(learnt); i++ {
		if s.reason[learnt[i].Var()] == -1 || !s.litRedundant(learnt[i]) {
			learnt[jj] = learnt[i]
			jj++
		}
	}
	minimized := learnt[:jj]
	for _, v := range origVars { // clear all marks, incl. dropped lits
		s.seen[v] = 0
	}
	for _, v := range s.toClr { // marks set transitively by litRedundant
		s.seen[v] = 0
	}
	s.toClr = s.toClr[:0]

	// Backtrack level: second-highest level in the clause.
	btLevel := 0
	if len(minimized) > 1 {
		maxI := 1
		for i := 2; i < len(minimized); i++ {
			if s.level[minimized[i].Var()] > s.level[minimized[maxI].Var()] {
				maxI = i
			}
		}
		minimized[1], minimized[maxI] = minimized[maxI], minimized[1]
		btLevel = s.level[minimized[1].Var()]
	}
	s.learntBuf = learnt[:0] // minimized aliases it; allocClause copies
	return minimized, btLevel
}

// litRedundant reports whether l is implied by the other marked literals,
// following reasons transitively (local minimization with a work stack).
func (s *Solver) litRedundant(l Lit) bool {
	stack := append(s.stackBuf[:0], l.Var())
	defer func() { s.stackBuf = stack[:0] }()
	top := len(s.toClr)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cref := s.reason[v]
		c := &s.arena[cref]
		for _, q := range c.lits[1:] {
			qv := q.Var()
			if s.seen[qv] != 0 || s.level[qv] == 0 {
				continue
			}
			if s.reason[qv] == -1 {
				// Failed: undo temporary marks.
				for _, u := range s.toClr[top:] {
					s.seen[u] = 0
				}
				s.toClr = s.toClr[:top]
				return false
			}
			s.seen[qv] = 1
			s.toClr = append(s.toClr, qv)
			stack = append(stack, qv)
		}
	}
	return true
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.assignLit[l] = lUndef
		s.assignLit[l^1] = lUndef
		s.polarity[v] = l.Neg()
		s.reason[v] = -1
		s.order.insert(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(cref int) {
	c := &s.arena[cref]
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, i := range s.learnts {
			s.arena[i].activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.claInc /= 0.999
}

func (s *Solver) pickBranchVar() Var {
	for !s.order.empty() {
		v := s.order.pop()
		if s.varValue(v) == lUndef {
			return v
		}
	}
	return -1
}

// reduceDB removes roughly half of the learnt clauses, keeping the most
// active and all binary clauses.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 2 {
		return
	}
	// Partial selection sort would be overkill; a simple threshold pass
	// over the activity median approximation works well in practice.
	extra := s.claInc / float64(len(s.learnts))
	// Sort learnts by activity ascending (insertion into new slices).
	sorted := make([]int, len(s.learnts))
	copy(sorted, s.learnts)
	// Simple quicksort on activity.
	sortByActivity(sorted, s.arena)
	half := len(sorted) / 2
	kept := sorted[:0]
	for i, cref := range sorted {
		c := &s.arena[cref]
		if len(c.lits) > 2 && !s.locked(cref) && (i < half || c.activity < extra) {
			s.detachClause(cref)
			c.deleted = true
			s.Stats.Removed++
		} else {
			kept = append(kept, cref)
		}
	}
	s.learnts = kept
}

func sortByActivity(refs []int, arena []clause) {
	if len(refs) < 2 {
		return
	}
	pivot := arena[refs[len(refs)/2]].activity
	i, j := 0, len(refs)-1
	for i <= j {
		for arena[refs[i]].activity < pivot {
			i++
		}
		for arena[refs[j]].activity > pivot {
			j--
		}
		if i <= j {
			refs[i], refs[j] = refs[j], refs[i]
			i++
			j--
		}
	}
	sortByActivity(refs[:j+1], arena)
	sortByActivity(refs[i:], arena)
}

func (s *Solver) locked(cref int) bool {
	c := &s.arena[cref]
	v := c.lits[0].Var()
	return s.reason[v] == cref && s.value(c.lits[0]) == lTrue
}

func (s *Solver) detachClause(cref int) {
	c := &s.arena[cref]
	for _, w := range []Lit{c.lits[0].Not(), c.lits[1].Not()} {
		ws := s.watches[w]
		for i := range ws {
			if ws[i].cref == cref {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// luby computes the Luby restart sequence value for index i (1-based):
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
func luby(i int64) int64 {
	x := i - 1
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return int64(1) << seq
}

// Solve searches for a satisfying assignment under the given assumption
// literals. On Sat, Model reports values. On Unknown, err is ErrBudget.
func (s *Solver) Solve(opts Options, assumptions ...Lit) (Status, error) {
	if !s.ok {
		return Unsat, nil
	}
	if opts.Obs != nil {
		start := time.Now()
		base := s.Stats
		defer func() {
			opts.Obs.Add("sat.decisions", s.Stats.Decisions-base.Decisions)
			opts.Obs.Add("sat.propagations", s.Stats.Propagations-base.Propagations)
			opts.Obs.Add("sat.conflicts", s.Stats.Conflicts-base.Conflicts)
			opts.Obs.Add("sat.restarts", s.Stats.Restarts-base.Restarts)
			opts.Obs.Observe("sat.solve.us", time.Since(start).Microseconds())
		}()
	}
	// An already-expired deadline returns before any search effort: the
	// caller's per-goal timeout may have elapsed while the query was
	// being built and blasted, and starting a conflict-free propagation
	// run here could overshoot it by an unbounded amount.
	if !opts.Deadline.IsZero() && !time.Now().Before(opts.Deadline) {
		return Unknown, ErrBudget
	}
	// Injected budget exhaustion: report the query as too hard without
	// searching (exercises callers' timeout/abandonment paths).
	if opts.Faults.Active(failpoint.SatSpuriousTimeout) {
		return Unknown, ErrBudget
	}
	defer s.cancelUntil(0)

	restartIdx := int64(0)
	baseRestart := int64(100)
	maxLearnts := float64(len(s.clauses))/3 + 1000
	conflictsAtStart := s.Stats.Conflicts

	for {
		restartIdx++
		st := s.search(luby(restartIdx)*baseRestart, assumptions, &maxLearnts, opts, conflictsAtStart)
		switch st {
		case Sat:
			// Reuse the model slice across Solve calls: this sits in the
			// innermost CEGIS loop, where a fresh allocation per check adds
			// measurable GC pressure.
			if n := s.NumVars(); cap(s.model) >= n {
				s.model = s.model[:n]
			} else {
				s.model = make([]bool, n)
			}
			for v := range s.model {
				s.model[v] = s.varValue(Var(v)) == lTrue
			}
			return Sat, nil
		case Unsat:
			return Unsat, nil
		}
		// Check the budget between restarts.
		if opts.MaxConflicts > 0 && s.Stats.Conflicts-conflictsAtStart >= opts.MaxConflicts {
			return Unknown, ErrBudget
		}
		if !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
			return Unknown, ErrBudget
		}
		s.Stats.Restarts++
		// Assumption-preserving restart: only undo the VSIDS decisions.
		// The assumptions occupy the first decision levels and would be
		// re-assumed identically, so keeping them (and everything they
		// imply) avoids re-propagating the whole assumption cone — the
		// dominant cost when an incremental caller guards a large
		// formula behind one activation literal.
		keep := len(assumptions)
		if dl := s.decisionLevel(); dl < keep {
			keep = dl
		}
		s.cancelUntil(keep)
	}
}

// search runs CDCL until a result, a restart budget expiry (returns
// Unknown), or an external budget expiry.
func (s *Solver) search(nConflicts int64, assumptions []Lit, maxLearnts *float64, opts Options, base int64) Status {
	conflicts := int64(0)
	decisions := int64(0)
	for {
		confl := s.propagate()
		if confl != -1 {
			s.Stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], -1)
			} else {
				cref := s.allocClause(learnt, true)
				s.learnts = append(s.learnts, cref)
				s.attachClause(cref)
				s.bumpClause(cref)
				s.uncheckedEnqueue(learnt[0], cref)
				s.Stats.Learnt++
			}
			s.decayActivities()
			if conflicts >= nConflicts {
				return Unknown // restart
			}
			if opts.MaxConflicts > 0 && s.Stats.Conflicts-base >= opts.MaxConflicts {
				return Unknown
			}
			if conflicts%256 == 0 && !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
				return Unknown
			}
			continue
		}
		if float64(len(s.learnts)) >= *maxLearnts+float64(len(s.trail)) {
			*maxLearnts *= 1.1
			s.reduceDB()
		}
		// Assumptions first, then VSIDS decision.
		var next Lit = -1
		for s.decisionLevel() < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail)) // dummy level
				continue
			case lFalse:
				return Unsat // conflicting assumptions
			}
			next = p
			break
		}
		if next == -1 {
			v := s.pickBranchVar()
			if v == -1 {
				return Sat
			}
			s.Stats.Decisions++
			// Conflict-count polling alone leaves the deadline unchecked
			// through long conflict-free runs (huge mostly-satisfiable
			// instances), so poll on a decision interval too.
			decisions++
			if decisions&1023 == 0 && !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
				return Unknown
			}
			next = MkLit(v, s.polarity[v])
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, -1)
	}
}

// Model returns the value of v in the most recent satisfying assignment.
// Only valid after Solve returned Sat. Variables allocated after that
// Solve call are unconstrained and report false.
func (s *Solver) Model(v Var) bool {
	if int(v) >= len(s.model) {
		return false
	}
	return s.model[v]
}

// varHeap is a max-heap of variables ordered by VSIDS activity.
type varHeap struct {
	s       *Solver
	heap    []Var
	indices []int // position of var in heap, -1 if absent
}

func (h *varHeap) less(a, b Var) bool { return h.s.activity[a] > h.s.activity[b] }

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) contains(v Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

func (h *varHeap) insert(v Var) {
	for int(v) >= len(h.indices) {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) update(v Var) {
	if h.contains(v) {
		h.up(h.indices[v])
	}
}

func (h *varHeap) pop() Var {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.indices[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.indices[v] = -1
	if len(h.heap) > 1 {
		h.down(0)
	}
	return v
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[i]] = i
		i = p
	}
	h.heap[i] = v
	h.indices[v] = i
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	for {
		c := 2*i + 1
		if c >= len(h.heap) {
			break
		}
		if c+1 < len(h.heap) && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.indices[h.heap[i]] = i
		i = c
	}
	h.heap[i] = v
	h.indices[v] = i
}
