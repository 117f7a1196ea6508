package sat

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// random3SATCNF is a uniform random 3-SAT instance with n variables and
// m clauses (no planted solution: above ratio ~4.3 almost always unsat).
func random3SATCNF(seed int64, n, m int) *cnf {
	rng := rand.New(rand.NewSource(seed))
	c := &cnf{nvars: n}
	for len(c.clause) < m {
		cl := make([]Lit, 3)
		for j := range cl {
			cl[j] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 0)
		}
		c.clause = append(c.clause, cl)
	}
	return c
}

// trajectory is what one pinned run must reproduce exactly: the verdict
// sequence (with a hash of each Sat model) and the cumulative effort.
type trajectory struct {
	verdicts string
	stats    Stats
}

// record appends one Solve outcome to the verdict sequence.
func (tr *trajectory) record(s *Solver, st Status, err error) {
	if err != nil {
		tr.verdicts += "err "
		return
	}
	tr.verdicts += st.String()
	if st == Sat {
		h := fnv.New32a()
		for v := 0; v < s.NumVars(); v++ {
			if s.Model(Var(v)) {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		tr.verdicts += fmt.Sprintf(":%08x", h.Sum32())
	}
	tr.verdicts += " "
}

// oneShot solves a fresh solver holding c once.
func oneShot(c *cnf) trajectory {
	s := c.solver()
	var tr trajectory
	st, err := s.Solve(Options{})
	tr.record(s, st, err)
	tr.stats = s.Stats
	return tr
}

// incrementalFrames drives one solver the way CEGIS verification does:
// each frame guards a fresh random 3-SAT block behind an activation
// literal, solves it under the activation literal (and once more under
// an extra assumption), then retires it with AddClause(¬act) and
// Simplify. A shared base formula links every frame's variables.
func incrementalFrames(seed int64, frames, n, m int) trajectory {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	base := make([]Var, 16)
	for i := range base {
		base[i] = s.NewVar()
	}
	for i := 0; i+1 < len(base); i++ {
		s.AddClause(MkLit(base[i], true), MkLit(base[i+1], false), MkLit(base[(i+5)%len(base)], rng.Intn(2) == 0))
	}
	var tr trajectory
	for f := 0; f < frames; f++ {
		act := MkLit(s.NewVar(), false)
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		for c := 0; c < m; c++ {
			cl := []Lit{act.Not()}
			for j := 0; j < 3; j++ {
				cl = append(cl, MkLit(vars[rng.Intn(n)], rng.Intn(2) == 0))
			}
			s.AddClause(cl...)
		}
		// Tie the frame to the base formula.
		s.AddClause(act.Not(), MkLit(vars[0], false), MkLit(base[f%len(base)], false))
		st, err := s.Solve(Options{}, act)
		tr.record(s, st, err)
		st, err = s.Solve(Options{}, act, MkLit(vars[1], f%2 == 0))
		tr.record(s, st, err)
		s.AddClause(act.Not())
		s.Simplify()
	}
	tr.stats = s.Stats
	return tr
}

// TestEffortTrajectoryPinned pins the solver's exact search trajectory:
// verdicts, Sat models and every effort counter on fixed inputs. The
// synthesis enumeration keeps the first patterns the SAT models yield,
// so any change to propagation order, literal swaps, analysis order,
// the reduction sort or the restart schedule changes which rules a
// library keeps. A data-layout change must leave this table untouched;
// an intended change to the search regenerates it (and the kept
// libraries) in the same commit.
func TestEffortTrajectoryPinned(t *testing.T) {
	cases := []struct {
		name string
		run  func() trajectory
		want trajectory
	}{
		{"php7x6", func() trajectory { return oneShot(pigeonholeCNF(7, 6)) },
			trajectory{"unsat ", Stats{Decisions: 1027, Propagations: 11233, Conflicts: 858, Restarts: 6, Learnt: 855}}},
		{"planted1", func() trajectory { return oneShot(planted3SATCNF(1, 250, 1050)) },
			trajectory{"sat:aba7a722 ", Stats{Decisions: 3140, Propagations: 114550, Conflicts: 2435, Restarts: 14, Learnt: 2435, Removed: 1441}}},
		{"planted2", func() trajectory { return oneShot(planted3SATCNF(2, 250, 1050)) },
			trajectory{"sat:f09bbb45 ", Stats{Decisions: 14131, Propagations: 517082, Conflicts: 11212, Restarts: 46, Learnt: 11212, Removed: 9275}}},
		{"planted3", func() trajectory { return oneShot(planted3SATCNF(3, 250, 1050)) },
			trajectory{"sat:3e6f9101 ", Stats{Decisions: 4857, Propagations: 179354, Conflicts: 3759, Restarts: 19, Learnt: 3759, Removed: 2266}}},
		{"random-unsat", func() trajectory { return oneShot(random3SATCNF(4, 200, 1000)) },
			trajectory{"unsat ", Stats{Decisions: 10640, Propagations: 308129, Conflicts: 8757, Restarts: 36, Learnt: 8747, Removed: 6350}}},
		{"incremental", func() trajectory { return incrementalFrames(5, 12, 150, 640) },
			trajectory{"unsat unsat unsat unsat unsat unsat unsat unsat unsat unsat sat:5e34f052 unsat sat:2984e70e unsat " +
				"sat:58e8436a unsat sat:6fa2d8ee sat:be33085e unsat unsat sat:2d54ad17 sat:2d54ad17 sat:495d2add sat:495d2add ",
				Stats{Decisions: 44811, Propagations: 647224, Conflicts: 19793, Restarts: 118, Learnt: 19787, Removed: 27407}}},
	}
	for _, tc := range cases {
		got := tc.run()
		if got != tc.want {
			t.Errorf("%s: trajectory moved\n got  %q %+v\n want %q %+v",
				tc.name, got.verdicts, got.stats, tc.want.verdicts, tc.want.stats)
		}
	}
}
