package sat

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// checkArena verifies the clause arena's invariants: headers tile the
// arena, wasted counts exactly the deleted words, both clause lists and
// every watcher and reason name a live clause, each live clause is
// watched exactly on the negations of its first two literals, and a
// reason's first literal is the literal it implied.
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	live := map[cref]bool{}
	wasted := 0
	for cr := 0; cr < len(s.arena); cr += clauseWords(s.arena[cr]) {
		if s.arena[cr]&hdrDeleted != 0 {
			wasted += clauseWords(s.arena[cr])
		} else {
			live[cref(cr)] = true
		}
	}
	if wasted != s.wasted {
		t.Fatalf("arena holds %d deleted words, solver counts %d", wasted, s.wasted)
	}
	listed := map[cref]bool{}
	for _, l := range []struct {
		refs   []cref
		learnt bool
	}{{s.clauses, false}, {s.learnts, true}} {
		for _, cr := range l.refs {
			if !live[cr] || listed[cr] {
				t.Fatalf("clause list names dead or repeated clause %d", cr)
			}
			if got := s.arena[cr]&hdrLearnt != 0; got != l.learnt {
				t.Fatalf("clause %d: learnt flag %v on the wrong list", cr, got)
			}
			listed[cr] = true
		}
	}
	if len(listed) != len(live) {
		t.Fatalf("%d live clauses, %d listed", len(live), len(listed))
	}
	watched := map[cref]int{}
	for p, ws := range s.watches {
		for _, w := range ws {
			if !live[w.cr] {
				t.Fatalf("watch list %d names dead clause %d", p, w.cr)
			}
			lits := s.clauseLits(w.cr)
			if uint32(p) != lits[0]^1 && uint32(p) != lits[1]^1 {
				t.Fatalf("clause %d watched on %d, not on its first two literals", w.cr, p)
			}
			watched[w.cr]++
		}
	}
	for cr := range live {
		if watched[cr] != 2 {
			t.Fatalf("clause %d has %d watchers, want 2", cr, watched[cr])
		}
	}
	for _, l := range s.trail {
		r := s.reason[l.Var()]
		if r == crefUndef {
			continue
		}
		if !live[r] || Lit(s.clauseLits(r)[0]) != l {
			t.Fatalf("reason of %v is clause %d, which does not imply it", l, r)
		}
	}
}

// arenaView renders everything the search reads from the arena by
// content rather than by offset: both clause lists in order (literals
// and learnt activity), every watch list in order, and every reason.
// A compaction must leave it unchanged.
func arenaView(s *Solver) []string {
	show := func(cr cref) string {
		if cr == crefUndef {
			return "-"
		}
		str := fmt.Sprint(s.clauseLits(cr))
		if s.arena[cr]&hdrLearnt != 0 {
			str += fmt.Sprintf("@%v", s.clauseActivity(cr))
		}
		return str
	}
	var v []string
	for _, cr := range s.clauses {
		v = append(v, "c"+show(cr))
	}
	for _, cr := range s.learnts {
		v = append(v, "l"+show(cr))
	}
	for p, ws := range s.watches {
		for _, w := range ws {
			v = append(v, fmt.Sprintf("w%d:%s/%d", p, show(w.cr), w.blocker))
		}
	}
	for x, r := range s.reason {
		v = append(v, fmt.Sprintf("r%d:%s", x, show(r)))
	}
	return v
}

// TestCollectPreservesOrder compacts an arena with holes in both clause
// lists and checks that nothing the search reads moved, only offsets.
func TestCollectPreservesOrder(t *testing.T) {
	s := planted3SATCNF(2, 250, 1050).solver()
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("planted instance: %v", st)
	}
	// Fix a few variables at level 0 and drop what they satisfy, without
	// letting Simplify collect: the holes stay for collect to close.
	for v := 0; v < 8; v++ {
		s.AddClause(MkLit(Var(v), !s.Model(Var(v))))
	}
	s.clauses = s.simplifyList(s.clauses)
	s.learnts = s.simplifyList(s.learnts)
	if s.wasted == 0 || len(s.learnts) == 0 {
		t.Fatalf("setup left no holes (wasted %d) or no learnts", s.wasted)
	}
	before, size := arenaView(s), len(s.arena)
	s.collect()
	checkArena(t, s)
	if s.wasted != 0 || len(s.arena) >= size {
		t.Fatalf("collect: arena %d -> %d words, %d still wasted", size, len(s.arena), s.wasted)
	}
	if after := arenaView(s); !reflect.DeepEqual(before, after) {
		t.Fatalf("collect changed what the search reads")
	}
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("after collect: %v", st)
	}
}

// TestCollectorBoundsWaste drives one solver through hundreds of
// activation-literal frames, each solved, retired with AddClause(¬act)
// and Simplify. After every Simplify deleted clauses hold at most a
// fifth of the arena, and every verdict matches a fresh solver given the
// same base and frame clauses unguarded.
func TestCollectorBoundsWaste(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// The base outweighs a frame, so deletions pile up over several
	// retirements before a collection is due.
	const nbase, nframe, frames = 60, 10, 300
	base := planted3SATCNF(12, nbase, 4*nbase)
	baseVars := make([]Var, nbase)
	for i := range baseVars {
		baseVars[i] = Var(i)
	}
	s := base.solver()
	verdicts := map[Status]int{}
	for f := 0; f < frames; f++ {
		act := MkLit(s.NewVar(), false)
		vars := append([]Var(nil), baseVars...)
		for i := 0; i < nframe; i++ {
			vars = append(vars, s.NewVar())
		}
		// The same frame over fresh variables 0..nbase+nframe-1.
		fresh := &cnf{nvars: nbase + nframe, clause: append([][]Lit(nil), base.clause...)}
		for c := 0; c < 4*nframe+rng.Intn(nframe); c++ {
			idx := [3]int{rng.Intn(len(vars)), rng.Intn(len(vars)), rng.Intn(len(vars))}
			var cl, fcl []Lit
			for _, i := range idx {
				neg := rng.Intn(2) == 0
				cl = append(cl, MkLit(vars[i], neg))
				fcl = append(fcl, MkLit(Var(i), neg))
			}
			fresh.clause = append(fresh.clause, fcl)
			s.AddClause(append(cl, act.Not())...)
		}
		got := mustSolve(t, s, act)
		if want := mustSolve(t, fresh.solver()); got != want {
			t.Fatalf("frame %d: incremental %v, fresh %v", f, got, want)
		}
		verdicts[got]++
		s.AddClause(act.Not())
		s.Simplify()
		if 5*s.wasted > len(s.arena) {
			t.Fatalf("frame %d: %d of %d arena words deleted after Simplify", f, s.wasted, len(s.arena))
		}
		checkArena(t, s)
	}
	if verdicts[Sat] == 0 || verdicts[Unsat] == 0 || s.collections == 0 {
		t.Fatalf("frames gave %v with %d collections; want both verdicts and a collection", verdicts, s.collections)
	}
}

// TestCollectMidSearch: reduceDB compacts the arena during Solve, with
// reasons of assigned variables pointing into it. The solver must still
// reach a valid model (or the known verdict) with a consistent arena.
func TestCollectMidSearch(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *cnf
		want Status
	}{
		{"planted", planted3SATCNF(2, 250, 1050), Sat},
		{"random-unsat", random3SATCNF(4, 200, 1000), Unsat},
	} {
		s := tc.c.solver()
		if st := mustSolve(t, s); st != tc.want {
			t.Fatalf("%s: got %v, want %v", tc.name, st, tc.want)
		}
		// No Simplify ran: every collection came from reduceDB.
		if s.collections == 0 {
			t.Fatalf("%s: reduceDB never compacted the arena", tc.name)
		}
		if tc.want == Sat {
			verifyModel(t, s, tc.c.clause)
		}
		checkArena(t, s)
	}
}
