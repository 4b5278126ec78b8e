package memo

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"hermes/internal/term"
)

// occurrence is a subgoal occurrence as the engine keys it: its argument
// terms, the adornment and the values at the bound positions.
type occurrence struct {
	args  []term.Term
	adorn string
	in    []term.Value
}

// parseSpec turns a comma-separated argument spec into an occurrence: a
// token in single quotes is a bound string, a token of digits is a bound
// integer, anything else is a free variable named by the token. It
// mirrors how the engine classifies run-time argument positions.
func parseSpec(spec string) occurrence {
	if spec == "" {
		return occurrence{}
	}
	var o occurrence
	adorn := []byte{}
	for _, tok := range strings.Split(spec, ",") {
		var v term.Value
		if len(tok) >= 2 && tok[0] == '\'' && tok[len(tok)-1] == '\'' {
			v = term.Str(tok[1 : len(tok)-1])
		} else if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
			v = term.Int(n)
		}
		if v != nil {
			o.args, o.in, adorn = append(o.args, term.C(v)), append(o.in, v), append(adorn, 'b')
			continue
		}
		o.args, o.in, adorn = append(o.args, term.V(tok)), append(o.in, nil), append(adorn, 'f')
	}
	o.adorn = string(adorn)
	return o
}

// key compiles the occurrence's terms in one numbering and keys it.
func (o occurrence) key(t *testing.T, fp uint64, pred string) string {
	var n term.Numbering
	key, ok := AppendKey(nil, fp, pred, o.adorn, n.Slots(nil, o.args), o.in)
	if !ok {
		t.Fatalf("AppendKey refused %s^%s %v", pred, o.adorn, o.args)
	}
	return string(key)
}

// with returns the occurrence with its free variables renamed by rename.
func (o occurrence) with(rename func(name string) string) occurrence {
	out := o
	out.args = make([]term.Term, len(o.args))
	for i, a := range o.args {
		out.args[i] = a
		if !a.IsConst() {
			out.args[i] = term.V(rename(a.Var))
		}
	}
	return out
}

// renameVars applies an injective renaming to the free variables (suffix
// by first-occurrence index keeps distinct names distinct).
func (o occurrence) renameVars() occurrence {
	seen := map[string]string{}
	return o.with(func(name string) string {
		fresh, ok := seen[name]
		if !ok {
			fresh = "renamed_" + strconv.Itoa(len(seen)) + "_" + name
			seen[name] = fresh
		}
		return fresh
	})
}

// FuzzKeyCanonicalization checks the key invariants over arbitrary
// predicate names and argument specs: α-equivalent occurrences always
// share a key, while changing the binding structure, a bound value, or
// the plan fingerprint always separates them.
func FuzzKeyCanonicalization(f *testing.F) {
	f.Add("actors", "X")
	f.Add("query1", "'rope',Frame")
	f.Add("p", "X,X")
	f.Add("p", "X,Y")
	f.Add("q", "12,X,'a',X,Y")
	f.Add("r", "")
	f.Add("rel", "A,B,A,37")
	f.Fuzz(func(t *testing.T, pred string, spec string) {
		o := parseSpec(spec)
		key := o.key(t, 42, pred)

		// Determinism.
		if again := o.key(t, 42, pred); again != key {
			t.Fatalf("key not deterministic: %q vs %q", key, again)
		}
		// α-equivalence: injective renaming preserves the key.
		if renamed := o.renameVars().key(t, 42, pred); renamed != key {
			t.Errorf("injective renaming changed the key:\n  %q\n  %q", key, renamed)
		}
		// Fingerprint separates plans.
		if other := o.key(t, 43, pred); other == key {
			t.Error("different fingerprints share a key")
		}

		// Merging two distinct free variables changes the equality
		// structure and must change the key.
		var order []string
		for _, a := range o.args {
			if !a.IsConst() && !slices.Contains(order, a.Var) {
				order = append(order, a.Var)
			}
		}
		if len(order) >= 2 {
			merged := o.with(func(name string) string {
				if name == order[1] {
					return order[0]
				}
				return name
			})
			if merged.key(t, 42, pred) == key {
				t.Errorf("merging free vars %q and %q did not change the key %q", order[0], order[1], key)
			}
		}

		// Changing any bound value changes the key.
		for i, v := range o.in {
			if v == nil {
				continue
			}
			mutated := o
			mutated.in = append([]term.Value(nil), o.in...)
			mutated.in[i] = term.Str("mutated:" + string(term.AppendKey(nil, v)))
			if mutated.key(t, 42, pred) == key {
				t.Errorf("mutating bound arg %d did not change the key %q", i, key)
			}
		}
	})
}
