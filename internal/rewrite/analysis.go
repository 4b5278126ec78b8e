package rewrite

import (
	"fmt"
	"sort"

	"hermes/internal/lang"
	"hermes/internal/term"
)

// pushBody pushes equality selections on scan outputs into the source
// (§5's "push selections to the source"): the pattern
//
//	in(T, d:all(Tbl)) & T.attr = v        (v a constant or plan-time value)
//
// becomes in(T, d:equal(Tbl, attr, v)) with the comparison removed, when
// the source exports equal/3. The transformation is applied repeatedly
// until it no longer fires. It returns the pushes made, which applyPushes
// replays on any body of the same shape, and whether every function
// listing it read could be obtained.
func (rw *Rewriter) pushBody(body []lang.Literal) (out []lang.Literal, pushes []push, confirmed bool) {
	out, confirmed = body, true
	if rw.pusher == nil {
		return out, nil, true
	}
	for {
		p, ok := rw.nextPush(out, &confirmed)
		if !ok {
			return out, pushes, confirmed
		}
		pushes = append(pushes, p)
		out = applyPushes(out, pushes[len(pushes)-1:])
	}
}

// push is one selection push-down: the scan at body index scan absorbs the
// comparison at index cmp, both indexes into the body as it stood when the
// push was made.
type push struct{ scan, cmp int }

// nextPush finds the first scan and comparison of body that can be pushed,
// clearing *confirmed when a domain's listing cannot be obtained.
func (rw *Rewriter) nextPush(body []lang.Literal, confirmed *bool) (push, bool) {
	for i, lit := range body {
		in, ok := lit.(*lang.InCall)
		if !ok || in.Call.Function != "all" || len(in.Call.Args) != 1 || !in.Out.IsVar() || !in.Call.Args[0].IsConst() {
			continue
		}
		has, err := rw.pusher.HasFunction(in.Call.Domain, "equal", 3)
		if err != nil {
			*confirmed = false
		}
		if !has {
			continue
		}
		for j, lit2 := range body {
			if cmp, ok := lit2.(*lang.Comparison); ok && cmp.Op == term.OpEQ {
				if _, _, ok := attrEquality(cmp, in.Out.Var); ok {
					return push{scan: i, cmp: j}, true
				}
			}
		}
	}
	return push{}, false
}

// applyPushes makes pushes on body in order, each scan replaced by its
// source select and its comparison dropped. pushBody makes them as it
// finds them; a body of the same shape takes them all at once.
func applyPushes(body []lang.Literal, pushes []push) []lang.Literal {
	for _, p := range pushes {
		in := body[p.scan].(*lang.InCall)
		attr, val, _ := attrEquality(body[p.cmp].(*lang.Comparison), in.Out.Var)
		pushed := &lang.InCall{
			Out: in.Out,
			Call: lang.CallTemplate{
				Domain:   in.Call.Domain,
				Function: "equal",
				Args:     []term.Term{in.Call.Args[0], term.C(term.Str(attr)), val},
			},
		}
		next := make([]lang.Literal, 0, len(body)-1)
		for k, l := range body {
			switch k {
			case p.scan:
				next = append(next, pushed)
			case p.cmp:
				// comparison absorbed by the source select
			default:
				next = append(next, l)
			}
		}
		body = next
	}
	return body
}

// attrEquality recognizes a comparison of the form V.attr = t or t = V.attr
// where V is the given variable and the other side is a constant term,
// returning the attribute and the value term.
func attrEquality(cmp *lang.Comparison, v string) (attr string, val term.Term, ok bool) {
	try := func(side, other term.Term) (string, term.Term, bool) {
		if side.Var == v && len(side.Path) == 1 && other.IsConst() {
			return side.Path[0], other, true
		}
		return "", term.Term{}, false
	}
	if a, t, ok := try(cmp.Left, cmp.Right); ok {
		return a, t, true
	}
	return try(cmp.Right, cmp.Left)
}

// FnKey identifies a domain function.
type FnKey struct {
	Domain   string
	Function string
	Arity    int
}

func (k FnKey) String() string { return fmt.Sprintf("%s:%s/%d", k.Domain, k.Function, k.Arity) }

// DimAnalysis is the result of the §6.2.2 droppability analysis for one
// domain function: which argument positions can ever be instantiated to a
// specific constant during the rewriting phase (and therefore must be kept
// as summary-table dimensions), and which can be dropped.
type DimAnalysis struct {
	Key FnKey
	// Keep lists positions that may be planning-time constants.
	Keep []int
	// Drop lists positions that can never be planning-time constants.
	Drop []int
}

// DroppableDims inspects a program and decides, per domain function, which
// argument positions can never be instantiated to a specific constant
// during rewriting — those positions may be dropped from the dimension
// sets of summary tables without affecting any estimate the cost estimator
// can ever request (§6.2.2, Example 6.2).
//
// exported lists the predicates users may query (with constants anywhere);
// all other predicates are "hidden" and receive constants only through the
// program text.
func DroppableDims(prog *lang.Program, exported []string) []DimAnalysis {
	exportedSet := map[string]bool{}
	for _, p := range exported {
		exportedSet[p] = true
	}
	// constPos[pred][i] == true: callers may pass a specific constant at
	// argument i of pred.
	constPos := map[string][]bool{}
	arity := map[string]int{}
	for _, r := range prog.Rules {
		if _, seen := arity[r.Head.Pred]; !seen {
			arity[r.Head.Pred] = len(r.Head.Args)
			constPos[r.Head.Pred] = make([]bool, len(r.Head.Args))
		}
	}
	for p := range exportedSet {
		if slots, ok := constPos[p]; ok {
			for i := range slots {
				slots[i] = true
			}
		}
	}
	// Fixpoint: propagate const-possibility from callers into callees.
	for changed := true; changed; {
		changed = false
		for _, r := range prog.Rules {
			cp := constPossibleVars(r, constPos[r.Head.Pred])
			for _, lit := range r.Body {
				a, ok := lit.(*lang.Atom)
				if !ok {
					continue
				}
				slots, known := constPos[a.Pred]
				if !known {
					continue
				}
				for i, t := range a.Args {
					if i >= len(slots) || slots[i] {
						continue
					}
					if t.IsConst() || (t.Var != "" && cp[t.Var]) {
						slots[i] = true
						changed = true
					}
				}
			}
		}
	}
	// Collect per-function keep/drop sets over all in() occurrences.
	keep := map[FnKey]map[int]bool{}
	seen := map[FnKey]bool{}
	for _, r := range prog.Rules {
		cp := constPossibleVars(r, constPos[r.Head.Pred])
		for _, lit := range r.Body {
			in, ok := lit.(*lang.InCall)
			if !ok {
				continue
			}
			k := FnKey{Domain: in.Call.Domain, Function: in.Call.Function, Arity: len(in.Call.Args)}
			seen[k] = true
			if keep[k] == nil {
				keep[k] = map[int]bool{}
			}
			for i, t := range in.Call.Args {
				if t.IsConst() || (t.Var != "" && cp[t.Var]) {
					keep[k][i] = true
				}
			}
		}
	}
	var out []DimAnalysis
	for k := range seen {
		da := DimAnalysis{Key: k}
		for i := 0; i < k.Arity; i++ {
			if keep[k][i] {
				da.Keep = append(da.Keep, i)
			} else {
				da.Drop = append(da.Drop, i)
			}
		}
		out = append(out, da)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key.String() < out[b].Key.String() })
	return out
}

// constPossibleVars returns the rule variables that may hold a
// planning-time constant: head variables at const-possible positions, and
// variables equated to constants in the body.
func constPossibleVars(r *lang.Rule, headConstPos []bool) map[string]bool {
	cp := map[string]bool{}
	for i, t := range r.Head.Args {
		if t.Var != "" && i < len(headConstPos) && headConstPos[i] {
			cp[t.Var] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, lit := range r.Body {
			c, ok := lit.(*lang.Comparison)
			if !ok || c.Op != term.OpEQ {
				continue
			}
			mark := func(a, b term.Term) {
				if a.IsVar() && !cp[a.Var] && (b.IsConst() || (b.Var != "" && cp[b.Var] && len(b.Path) == 0)) {
					cp[a.Var] = true
					changed = true
				}
			}
			mark(c.Left, c.Right)
			mark(c.Right, c.Left)
		}
	}
	return cp
}

// IndependentInCalls returns the execution-order positions (indexes into
// pr.Order) of the in() literals that are mutually independent given the
// head-bound variables: every call argument is ground under `bound` alone
// (no data flows into it from any other body literal), and the output is a
// distinct fresh bare variable. Such literals form the paper's
// independent-subgoal set — their source calls can be launched
// concurrently at body start without changing the answer set, because no
// binding produced by the body reaches them.
//
// The engine uses this to overlap sibling source calls: each independent
// literal's answer stream depends only on the head bindings, so it can be
// spooled once and replayed for every outer binding. Fewer than two
// qualifying literals yields nil (nothing to overlap).
func IndependentInCalls(pr *PlanRule, bound map[string]bool) []int {
	var out []int
	seen := map[string]bool{} // variables occurring in earlier literals
	for pos, bi := range pr.Order {
		lit := pr.Rule.Body[bi]
		in, ok := lit.(*lang.InCall)
		if !ok {
			for _, v := range lit.Vars(nil) {
				seen[v] = true
			}
			continue
		}
		ground := true
		for _, a := range in.Call.Args {
			if !groundUnder(a, bound) {
				ground = false
				break
			}
		}
		// Output must be a fresh bare variable no earlier literal could
		// have bound (an earlier occurrence makes this a membership test
		// or a join at run time, which orders the calls).
		if ground && in.Out.IsVar() && len(in.Out.Path) == 0 &&
			!bound[in.Out.Var] && !seen[in.Out.Var] {
			out = append(out, pos)
		}
		for _, v := range lit.Vars(nil) {
			seen[v] = true
		}
	}
	if len(out) < 2 {
		return nil
	}
	return out
}
