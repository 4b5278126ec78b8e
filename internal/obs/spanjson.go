package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"
)

// Span-subtree JSON: the wire form a remote hermesd uses to ship the span
// tree it built while serving one call back to the caller, who stitches it
// under the local call span. The format is the SpanData JSON encoding;
// decoding validates structure so a malformed or hostile peer subtree is
// rejected with an error, never a panic or an unbounded allocation.

// Limits enforced by DecodeSpanJSON on peer-supplied subtrees.
const (
	// MaxSpanDepth bounds subtree nesting.
	MaxSpanDepth = 64
	// MaxSpanNodes bounds total node count.
	MaxSpanNodes = 16384
)

// TruncatedTag marks a subtree whose deeper levels were pruned to fit a
// byte budget (value "1"); the caller's EXPLAIN shows the cut instead of
// silently dropping the subtree.
const TruncatedTag = "truncated"

// EncodeSpanJSON renders a span snapshot as its wire JSON.
func EncodeSpanJSON(d SpanData) ([]byte, error) {
	return json.Marshal(d)
}

// DecodeSpanJSON parses a peer-supplied span subtree, validating structure:
// depth and node count are bounded, every span is named, and no span ends
// before it starts. Invalid input returns an error; the zero SpanData is
// returned alongside it.
func DecodeSpanJSON(b []byte) (SpanData, error) {
	var d SpanData
	if err := json.Unmarshal(b, &d); err != nil {
		return SpanData{}, fmt.Errorf("obs: span subtree: %w", err)
	}
	nodes := 0
	if err := validateSpan(d, 0, &nodes); err != nil {
		return SpanData{}, err
	}
	return d, nil
}

func validateSpan(d SpanData, depth int, nodes *int) error {
	if depth > MaxSpanDepth {
		return fmt.Errorf("obs: span subtree deeper than %d", MaxSpanDepth)
	}
	*nodes++
	if *nodes > MaxSpanNodes {
		return fmt.Errorf("obs: span subtree larger than %d nodes", MaxSpanNodes)
	}
	if d.Name == "" {
		return errors.New("obs: span subtree contains an unnamed span")
	}
	if d.End < d.Start {
		return fmt.Errorf("obs: span %q ends before it starts", d.Name)
	}
	for _, c := range d.Children {
		if err := validateSpan(c, depth+1, nodes); err != nil {
			return err
		}
	}
	return nil
}

// TruncateSpanJSON encodes d in at most maxBytes, pruning the deepest
// levels first until the encoding fits and tagging the root TruncatedTag=1
// when anything was pruned. maxBytes <= 0 means unlimited. ok is false when
// even the root alone does not fit.
func TruncateSpanJSON(d SpanData, maxBytes int) (b []byte, truncated, ok bool) {
	b, err := json.Marshal(d)
	if err != nil {
		return nil, false, false
	}
	if maxBytes <= 0 || len(b) <= maxBytes {
		return b, false, true
	}
	for depth := spanDepth(d) - 1; depth >= 0; depth-- {
		pruned := pruneSpan(d, depth)
		pruned.Tags = slices.Clone(d.Tags).set(TruncatedTag, "1") // d's own stay as they are
		b, err = json.Marshal(pruned)
		if err == nil && len(b) <= maxBytes {
			return b, true, true
		}
	}
	return nil, true, false
}

// spanDepth returns the deepest nesting level in d (root = 0).
func spanDepth(d SpanData) int {
	max := 0
	for _, c := range d.Children {
		if n := spanDepth(c) + 1; n > max {
			max = n
		}
	}
	return max
}

// pruneSpan copies d keeping children only down to the given depth
// (0 = root alone).
func pruneSpan(d SpanData, depth int) SpanData {
	out := d
	if depth == 0 {
		out.Children = nil
		return out
	}
	out.Children = make([]SpanData, len(d.Children))
	for i, c := range d.Children {
		out.Children[i] = pruneSpan(c, depth-1)
	}
	return out
}

// RebaseSpan shifts every clock reading in d so the root starts at base.
// Stitching uses it to map a peer's serve subtree (timed on the peer's own
// clock) onto the caller's execution-clock axis at the moment the call was
// issued, so one EXPLAIN tree reads on a single axis.
func RebaseSpan(d SpanData, base time.Duration) SpanData {
	return shiftSpan(d, base-d.Start)
}

func shiftSpan(d SpanData, by time.Duration) SpanData {
	out := d
	out.Start += by
	out.End += by
	if len(d.Children) > 0 {
		out.Children = make([]SpanData, len(d.Children))
		for i, c := range d.Children {
			out.Children[i] = shiftSpan(c, by)
		}
	}
	return out
}
