package sat

import (
	"math/rand"
	"testing"
)

// buildPHP builds the pigeonhole principle instance PHP(p, h).
func buildPHP(p, h int) *Solver {
	s := New()
	for i := 0; i < p*h; i++ {
		s.NewVar()
	}
	v := func(pi, hi int) Lit { return MkLit(Var(pi*h+hi), false) }
	for pi := 0; pi < p; pi++ {
		var c []Lit
		for hi := 0; hi < h; hi++ {
			c = append(c, v(pi, hi))
		}
		s.AddClause(c...)
	}
	for hi := 0; hi < h; hi++ {
		for p1 := 0; p1 < p; p1++ {
			for p2 := p1 + 1; p2 < p; p2++ {
				s.AddClause(v(p1, hi).Not(), v(p2, hi).Not())
			}
		}
	}
	return s
}

// reportPropRate reports the propagation rate over the whole timed
// loop (props/s): the solver's throughput, free of how hard the
// instances happen to be.
func reportPropRate(b *testing.B, props int64) {
	b.ReportMetric(float64(props)/b.Elapsed().Seconds(), "props/s")
}

func BenchmarkPigeonhole7x6(b *testing.B) {
	var props int64
	for i := 0; i < b.N; i++ {
		s := buildPHP(7, 6)
		st, err := s.Solve(Options{})
		if err != nil || st != Unsat {
			b.Fatalf("got %v %v", st, err)
		}
		props += s.Stats.Propagations
	}
	reportPropRate(b, props)
}

func BenchmarkRandom3SAT(b *testing.B) {
	// Planted satisfiable instances at clause ratio 4.0.
	rng := rand.New(rand.NewSource(5))
	n := 120
	m := 480
	var props int64
	for i := 0; i < b.N; i++ {
		planted := make([]bool, n)
		for j := range planted {
			planted[j] = rng.Intn(2) == 0
		}
		s := New()
		for j := 0; j < n; j++ {
			s.NewVar()
		}
		for c := 0; c < m; c++ {
			lits := make([]Lit, 3)
			sat := false
			for j := range lits {
				v := Var(rng.Intn(n))
				lits[j] = MkLit(v, rng.Intn(2) == 0)
				val := planted[v]
				if lits[j].Neg() {
					val = !val
				}
				if val {
					sat = true
				}
			}
			if !sat {
				lits[0] = MkLit(lits[0].Var(), !planted[lits[0].Var()])
			}
			s.AddClause(lits...)
		}
		st, err := s.Solve(Options{})
		if err != nil || st != Sat {
			b.Fatalf("got %v %v", st, err)
		}
		props += s.Stats.Propagations
	}
	reportPropRate(b, props)
}

// BenchmarkIncrementalFrames is shaped like CEGIS verification: one
// solver, a sequence of frames each guarding a multiplier miter behind
// an activation literal, solved under it (twice, the second time with
// one more assumption), then retired with AddClause(¬act) and Simplify.
// Retired clauses are deleted and the arena collector reclaims them as
// frames go by.
func BenchmarkIncrementalFrames(b *testing.B) {
	var props int64
	for i := 0; i < b.N; i++ {
		s := New()
		for f, st := range miterFrames(s, 6, 9) {
			if want := [3]Status{Unsat, Unsat, Sat}[f/2%3]; st != want {
				b.Fatalf("solve %d: got %v, want %v", f, st, want)
			}
		}
		props += s.Stats.Propagations
	}
	reportPropRate(b, props)
}

// miterFrames runs frames miter checks over w-bit inputs x and y and
// returns the verdicts, two per frame. Frame f compares x*y with y*x,
// x*(y+x) with x*y+x*x, or (every third frame) x*y with y*x with one
// output bit flipped: unsat, unsat, sat.
func miterFrames(s *Solver, w, frames int) []Status {
	in := func() []Lit {
		v := make([]Lit, w)
		for i := range v {
			v[i] = MkLit(s.NewVar(), false)
		}
		return v
	}
	x, y := in(), in()
	var got []Status
	for f := 0; f < frames; f++ {
		act := MkLit(s.NewVar(), false)
		c := &circuit{s: s, guard: []Lit{act.Not()}}
		var l, r []Lit
		switch f % 3 {
		case 0:
			l, r = c.mul(x, y), c.mul(y, x)
		case 1:
			l, r = c.mul(x, c.add(y, x)), c.add(c.mul(x, y), c.mul(x, x))
		case 2:
			l, r = c.mul(x, y), c.mul(y, x)
			r[f%w] = r[f%w].Not()
		}
		var diff []Lit
		for i := range l {
			diff = append(diff, c.xor(l[i], r[i]))
		}
		c.clause(diff...)
		for _, extra := range [][]Lit{nil, {x[0]}} {
			st, err := s.Solve(Options{}, append([]Lit{act}, extra...)...)
			if err != nil {
				panic(err)
			}
			got = append(got, st)
		}
		s.AddClause(act.Not())
		s.Simplify()
	}
	return got
}

// circuit Tseitin-encodes gates into a solver, every clause guarded by
// the frame's activation literal, the way the SMT facade blasts a framed
// assertion.
type circuit struct {
	s     *Solver
	guard []Lit
}

func (c *circuit) clause(lits ...Lit) { c.s.AddClause(append(lits, c.guard...)...) }

func (c *circuit) and(a, b Lit) Lit {
	g := MkLit(c.s.NewVar(), false)
	c.clause(g.Not(), a)
	c.clause(g.Not(), b)
	c.clause(g, a.Not(), b.Not())
	return g
}

func (c *circuit) xor(a, b Lit) Lit {
	g := MkLit(c.s.NewVar(), false)
	c.clause(g.Not(), a, b)
	c.clause(g.Not(), a.Not(), b.Not())
	c.clause(g, a.Not(), b)
	c.clause(g, a, b.Not())
	return g
}

func (c *circuit) or(a, b Lit) Lit { return c.and(a.Not(), b.Not()).Not() }

// add is a ripple-carry adder modulo 2^len(a).
func (c *circuit) add(a, b []Lit) []Lit {
	sum := make([]Lit, len(a))
	var carry Lit = -1
	for i := range a {
		if carry == -1 {
			sum[i], carry = c.xor(a[i], b[i]), c.and(a[i], b[i])
			continue
		}
		t := c.xor(a[i], b[i])
		sum[i] = c.xor(t, carry)
		carry = c.or(c.and(a[i], b[i]), c.and(t, carry))
	}
	return sum
}

// mul is a shift-and-add multiplier modulo 2^len(a).
func (c *circuit) mul(a, b []Lit) []Lit {
	var acc []Lit
	for i := range b {
		row := make([]Lit, len(a))
		for j := range row {
			if j < i {
				row[j] = c.zero()
			} else {
				row[j] = c.and(a[j-i], b[i])
			}
		}
		if acc == nil {
			acc = row
		} else {
			acc = c.add(acc, row)
		}
	}
	return acc
}

func (c *circuit) zero() Lit {
	z := MkLit(c.s.NewVar(), false)
	c.clause(z.Not())
	return z
}
