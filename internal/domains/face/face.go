// Package face implements the face-recognition source domain standing in
// for the face recognition package integrated by HERMES. It performs
// feature-vector similarity search with an early-terminating scan whose
// cost depends on the gallery's similarity structure around the probe —
// another domain "for which it is extremely difficult to develop a
// reasonable cost model".
package face

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// FeatureDim is the dimensionality of face feature vectors.
const FeatureDim = 16

// Entry is one gallery face: a person and their feature vector.
type Entry struct {
	Person   string
	Features [FeatureDim]float64
}

// CostParams model the recognizer's compute cost.
type CostParams struct {
	PerCall    time.Duration
	PerCompare time.Duration // per gallery comparison
	PerRefine  time.Duration // per refinement pass over candidates
}

// DefaultCostParams make a probe cost tens of milliseconds on a
// thousand-face gallery.
var DefaultCostParams = CostParams{
	PerCall:    12 * time.Millisecond,
	PerCompare: 30 * time.Microsecond,
	PerRefine:  200 * time.Microsecond,
}

// Gallery is the face domain.
type Gallery struct {
	name   string
	params CostParams

	mu      sync.RWMutex
	entries []Entry
	byName  map[string]int
}

// New creates an empty gallery.
func New(name string) *Gallery {
	return &Gallery{name: name, params: DefaultCostParams, byName: make(map[string]int)}
}

// Add registers a face.
func (g *Gallery) Add(e Entry) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.byName[e.Person]; dup {
		return fmt.Errorf("person %q already enrolled", e.Person)
	}
	g.byName[e.Person] = len(g.entries)
	g.entries = append(g.entries, e)
	return nil
}

// Populate enrolls n synthetic faces deterministically from seed.
func (g *Gallery) Populate(n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		var e Entry
		e.Person = fmt.Sprintf("person%04d", i)
		for d := range e.Features {
			e.Features[d] = rng.NormFloat64()
		}
		if err := g.Add(e); err != nil {
			panic(err)
		}
	}
}

// Name implements domain.Domain.
func (g *Gallery) Name() string { return g.name }

// Functions implements domain.Domain.
func (g *Gallery) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{
		{Name: "match", Arity: 2, Doc: "match(person, threshold): gallery entries within distance threshold of person's features"},
		{Name: "identify", Arity: 1, Doc: "identify(person): best non-self match"},
		{Name: "count", Arity: 0, Doc: "count(): gallery size"},
	}
}

func dist(a, b [FeatureDim]float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Call implements domain.Domain.
func (g *Gallery) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ctx.Clock.Sleep(g.params.PerCall)
	probeOf := func(i int) ([FeatureDim]float64, string, error) {
		name, ok := args[i].(term.Str)
		if !ok {
			return [FeatureDim]float64{}, "", fmt.Errorf("argument %d must be a person name, got %s", i+1, args[i])
		}
		idx, ok := g.byName[string(name)]
		if !ok {
			return [FeatureDim]float64{}, "", fmt.Errorf("person %q not enrolled", string(name))
		}
		return g.entries[idx].Features, string(name), nil
	}
	switch fn {
	case "count":
		if len(args) != 0 {
			return nil, fmt.Errorf("count/0 called with %d args", len(args))
		}
		return domain.NewSliceStream([]term.Value{term.Int(len(g.entries))}), nil

	case "match":
		if len(args) != 2 {
			return nil, fmt.Errorf("match/2 called with %d args", len(args))
		}
		probe, self, err := probeOf(0)
		if err != nil {
			return nil, err
		}
		thr, ok := term.Numeric(args[1])
		if !ok {
			return nil, fmt.Errorf("argument 2 must be a numeric threshold, got %s", args[1])
		}
		type hit struct {
			person string
			d      float64
		}
		var hits []hit
		compares := 0
		for _, e := range g.entries {
			compares++
			if e.Person == self {
				continue
			}
			if d := dist(probe, e.Features); d <= thr {
				hits = append(hits, hit{e.Person, d})
			}
		}
		// Refinement pass per candidate: the data-dependent cost term.
		ctx.Clock.Sleep(time.Duration(compares)*g.params.PerCompare +
			time.Duration(len(hits))*g.params.PerRefine)
		sort.Slice(hits, func(a, b int) bool {
			if hits[a].d != hits[b].d {
				return hits[a].d < hits[b].d
			}
			return hits[a].person < hits[b].person
		})
		out := make([]term.Value, len(hits))
		for i, h := range hits {
			out[i] = term.NewRecord(
				term.Field{Name: "person", Val: term.Str(h.person)},
				term.Field{Name: "distance", Val: term.Float(h.d)},
			)
		}
		return domain.NewSliceStream(out), nil

	case "identify":
		if len(args) != 1 {
			return nil, fmt.Errorf("identify/1 called with %d args", len(args))
		}
		probe, self, err := probeOf(0)
		if err != nil {
			return nil, err
		}
		best, bestD := "", math.Inf(1)
		for _, e := range g.entries {
			if e.Person == self {
				continue
			}
			if d := dist(probe, e.Features); d < bestD {
				best, bestD = e.Person, d
			}
		}
		ctx.Clock.Sleep(time.Duration(len(g.entries)) * g.params.PerCompare)
		if best == "" {
			return domain.NewSliceStream(nil), nil
		}
		return domain.NewSliceStream([]term.Value{term.Str(best)}), nil
	}
	return nil, fmt.Errorf("%w: %s:%s", domain.ErrUnknownFunction, g.name, fn)
}
