package memo

import (
	"slices"
	"strconv"

	"hermes/internal/term"
)

// Memo keys canonicalize IDB subgoal occurrences so that two α-equivalent
// occurrences — same predicate, same adornment, same ground values at the
// bound positions, and the same equality structure among the free
// variables — always map to the same cache entry, while any occurrence
// that could evaluate differently maps elsewhere. The free-variable
// structure matters because the engine filters answers caller-side: an
// occurrence p(X, X) keeps only the tuples whose first and second
// components agree, so it must not share an entry with p(X, Y).

// AppendKey appends the canonical memo key of a subgoal occurrence to dst,
// as pred^adorn|#fp|arg|…, one arg per position. It is the one key
// function: the engine probes the memo with it at run time, and the
// estimator prices residency with it at plan time.
//
// fingerprint pins the rule set the occurrence evaluates under (the
// rewriter plan's rendered rules): entries never cross plans whose rules,
// orderings or routings differ, which is conservative but always sound.
// pred and adorn are the paper's p^bf occurrence context. args are the
// occurrence's compiled arguments and in their values at the positions
// adorn marks bound: a bound position reads as its value's term.Value Key.
// A free position reads as v0, v1, … by the first occurrence of its frame
// position, so the key encodes exactly which positions must agree and
// nothing about the names the rule author chose.
//
// ok is false for an occurrence the key cannot name: a bound position
// without a value (the estimator's runtime-only binding) or a free
// attribute path, which replay cannot unify (the enclosing record is
// unknown).
func AppendKey(dst []byte, fingerprint uint64, pred, adorn string, args []term.Slot, in []term.Value) ([]byte, bool) {
	dst = append(append(append(dst, pred...), '^'), adorn...)
	dst = strconv.AppendUint(append(dst, "|#"...), fingerprint, 16)
	free := make([]int, 0, 8) // the distinct free frame positions, in order
	for i, s := range args {
		dst = append(dst, '|')
		if adorn[i] == 'b' {
			if in[i] == nil {
				return dst, false
			}
			dst = term.AppendKey(dst, in[i])
			continue
		}
		if !s.Term.IsVar() {
			return dst, false
		}
		id := slices.Index(free, s.Pos)
		if id < 0 {
			id, free = len(free), append(free, s.Pos)
		}
		dst = strconv.AppendInt(append(dst, 'v'), int64(id), 10)
	}
	return dst, true
}
