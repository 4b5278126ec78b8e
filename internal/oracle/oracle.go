// Package oracle is the reference semantics of a mediator program, which
// every mix of cache hit, invariant substitution, memo replay, parallel
// merge and retry or resume is checked against. It evaluates naively, on
// the raw sources and a private virtual clock, and imports nothing that
// plans, caches or executes. Its reading of a program:
//
//   - rules in textual order, under bag semantics (no duplicate elimination);
//   - body literals left to right, each held back only until its inputs are bound;
//   - in(X, d:f(...)) with X bound is a membership test that matches once;
//   - X = ground binds X;
//   - a union runs every rule, and can run only when every rule can; a
//     predicate declared access_equivalent runs its first feasible rule;
//   - a recursive predicate is refused with ErrRecursive.
package oracle

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"hermes/internal/domain"
	"hermes/internal/lang"
	"hermes/internal/term"
)

// ErrRecursive refuses a recursive predicate: it has no fixpoint semantics yet.
var ErrRecursive = errors.New("oracle: recursive predicate")

// env binds variables to values. Nothing changes an env; bind copies.
type env map[string]term.Value

func (e env) bind(name string, v term.Value) env {
	m := maps.Clone(e)
	m[name] = v
	return m
}

// has reports whether t is ground under e.
func (e env) has(t term.Term) bool {
	_, ok := e[t.Var]
	return t.IsConst() || ok
}

// eval resolves a term; ok is false when its variable is unbound.
func (e env) eval(t term.Term) (v term.Value, ok bool, err error) {
	if t.IsConst() {
		return t.Const, true, nil
	}
	if v, ok = e[t.Var]; ok && len(t.Path) > 0 {
		v, err = term.Select(v, t.Path)
	}
	return v, ok, err
}

// unify matches t against a ground value, binding a free bare variable.
func (e env) unify(t term.Term, v term.Value) (env, bool) {
	cur, ok, err := e.eval(t)
	if ok || err != nil || len(t.Path) > 0 {
		return e, ok && err == nil && term.Equal(cur, v)
	}
	return e.bind(t.Var, v), true
}

type evaluator struct {
	rules     map[string][]*lang.Rule
	equiv     map[string]bool // keys of the <pred, arity> declared access-equivalent
	sources   map[string]domain.Domain
	active    map[string]bool // predicates whose feasibility is being decided
	recursive string
}

// Eval returns the answers of q over prog against the sources: one row per
// answer, the query's variables in first-occurrence order as in
// engine.Answer.Vals. It ignores invariants: they are what is checked.
func Eval(prog *lang.Program, q *lang.Query, sources ...domain.Domain) ([][]term.Value, error) {
	ev := &evaluator{rules: map[string][]*lang.Rule{}, equiv: map[string]bool{},
		sources: map[string]domain.Domain{}, active: map[string]bool{}}
	for _, r := range prog.Rules {
		ev.rules[r.Head.Pred] = append(ev.rules[r.Head.Pred], r)
		if a := r.Head.Args; r.Head.Pred == "access_equivalent" && len(a) == 2 && a[0].IsConst() && a[1].IsConst() {
			ev.equiv[term.Tuple{a[0].Const, a[1].Const}.Key()] = true
		}
	}
	for _, d := range sources {
		ev.sources[d.Name()] = d
	}
	var vars []string
	for _, lit := range q.Body {
		for _, v := range lit.Vars(nil) {
			if !slices.Contains(vars, v) {
				vars = append(vars, v)
			}
		}
	}
	sols, err := ev.body(q.Body, env{})
	if ev.recursive != "" {
		return nil, fmt.Errorf("%w: %s", ErrRecursive, ev.recursive)
	}
	rows := make([][]term.Value, len(sols))
	for i, s := range sols {
		for _, v := range vars {
			rows[i] = append(rows[i], s[v]) // a literal that ran bound all its variables
		}
	}
	return rows, err
}

// ready reports whether lit can run once the variables in bound are.
func (ev *evaluator) ready(lit lang.Literal, bound env) bool {
	switch l := lit.(type) {
	case *lang.InCall:
		ok := bound.has(l.Out) || len(l.Out.Path) == 0
		for _, a := range l.Call.Args {
			ok = ok && bound.has(a)
		}
		return ok
	case *lang.Comparison:
		lg, rg := bound.has(l.Left), bound.has(l.Right)
		return lg && rg || l.Op == term.OpEQ && (lg && l.Right.IsVar() || rg && l.Left.IsVar())
	case *lang.Atom:
		return len(ev.feasible(l, bound)) > 0
	}
	return false
}

// order returns lits' positions in execution order, each time the leftmost
// ready literal, and adds what they bind to bound; false if one never is.
func (ev *evaluator) order(lits []lang.Literal, bound env) (ord []int, ok bool) {
	used := make([]bool, len(lits))
	for len(ord) < len(lits) {
		i := 0
		for i < len(lits) && (used[i] || !ev.ready(lits[i], bound)) {
			i++
		}
		if i == len(lits) {
			return nil, false
		}
		used[i], ord = true, append(ord, i)
		for _, v := range lits[i].Vars(nil) {
			bound[v] = bound[v] // bound from here on, value unknown
		}
	}
	return ord, true
}

// feasible returns the rules occurrence a runs once the variables in bound
// are: those whose body can be ordered and binds the head.
func (ev *evaluator) feasible(a *lang.Atom, bound env) []*lang.Rule {
	if ev.active[a.Pred] {
		ev.recursive = a.Pred
		return nil
	}
	ev.active[a.Pred] = true
	defer delete(ev.active, a.Pred)
	equiv := ev.equiv[term.Tuple{term.Str(a.Pred), term.Int(len(a.Args))}.Key()]
	var out []*lang.Rule
	for _, r := range ev.rules[a.Pred] {
		inner := env{}
		for i, h := range r.Head.Args {
			if i < len(a.Args) && bound.has(a.Args[i]) && h.IsVar() {
				inner[h.Var] = nil
			}
		}
		_, ok := ev.order(r.Body, inner)
		for _, v := range r.Head.Vars(nil) {
			ok = ok && inner.has(term.V(v))
		}
		switch ok = ok && len(r.Head.Args) == len(a.Args); {
		case ok && equiv:
			return []*lang.Rule{r}
		case ok:
			out = append(out, r)
		case !equiv:
			return nil // dropping a union rule would lose answers
		}
	}
	return out
}

// body returns every extension of e that satisfies lits.
func (ev *evaluator) body(lits []lang.Literal, e env) ([]env, error) {
	ord, ok := ev.order(lits, maps.Clone(e))
	if !ok {
		return nil, fmt.Errorf("oracle: no order of %v binds every input", lits)
	}
	envs := []env{e}
	for _, i := range ord {
		var next []env
		for _, x := range envs {
			m, err := ev.literal(lits[i], x)
			if err != nil {
				return nil, err
			}
			next = append(next, m...)
		}
		envs = next
	}
	return envs, nil
}

// literal returns the extensions of e that satisfy one ready literal.
func (ev *evaluator) literal(lit lang.Literal, e env) ([]env, error) {
	switch l := lit.(type) {
	case *lang.Comparison:
		lv, lg, err := e.eval(l.Left)
		rv, rg, err2 := e.eval(l.Right)
		switch {
		case err != nil || err2 != nil:
			return nil, errors.Join(err, err2)
		case !lg:
			return []env{e.bind(l.Left.Var, rv)}, nil
		case !rg:
			return []env{e.bind(l.Right.Var, lv)}, nil
		}
		if ok, err := l.Op.Holds(lv, rv); !ok || err != nil {
			return nil, err
		}
		return []env{e}, nil
	case *lang.InCall:
		src, ok := ev.sources[l.Call.Domain]
		if !ok {
			return nil, fmt.Errorf("oracle: no source %s", l.Call.Domain)
		}
		args := make([]term.Value, len(l.Call.Args))
		var err error
		for i := 0; err == nil && i < len(args); i++ {
			args[i], _, err = e.eval(l.Call.Args[i])
		}
		var s domain.Stream
		if err == nil {
			s, err = src.Call(domain.NewCtx(nil), l.Call.Function, args) // on a fresh virtual clock
		}
		if err != nil {
			return nil, err
		}
		vals, err := domain.Collect(s)
		var out []env
		for _, v := range vals {
			if m, ok := e.unify(l.Out, v); ok {
				out = append(out, m)
				if len(m) == len(e) {
					break // nothing was bound: a membership test matches once
				}
			}
		}
		return out, err
	case *lang.Atom:
		var out []env
		for _, r := range ev.feasible(l, e) {
			head, ok := env{}, true
			for i := 0; ok && i < len(l.Args); i++ {
				if v, bound, err := e.eval(l.Args[i]); bound && err == nil {
					head, ok = head.unify(r.Head.Args[i], v)
				}
			}
			if !ok {
				continue
			}
			sols, err := ev.body(r.Body, head)
			if err != nil {
				return nil, err
			}
			for _, s := range sols {
				m, ok := e, true
				for i := 0; ok && i < len(l.Args); i++ {
					v, _, _ := s.eval(r.Head.Args[i]) // feasible: the body binds the head
					m, ok = m.unify(l.Args[i], v)
				}
				if ok {
					out = append(out, m)
				}
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("oracle: unknown literal %T", lit)
}

// Sub reports whether no row occurs in got more often than in want.
func Sub(got, want [][]term.Value) bool {
	n := make(map[string]int, len(want))
	for _, r := range want {
		n[term.Tuple(r).Key()]++
	}
	for _, r := range got {
		k := term.Tuple(r).Key()
		if n[k]--; n[k] < 0 {
			return false
		}
	}
	return true
}

// Equal reports whether got and want are the same multiset of rows.
func Equal(got, want [][]term.Value) bool {
	return len(got) == len(want) && Sub(got, want)
}
