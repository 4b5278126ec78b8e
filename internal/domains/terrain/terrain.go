// Package terrain implements the terrain-reasoning / path-planning source
// domain standing in for the US Army path planner integrated by HERMES
// (the findrte function of the motivating routetosupplies mediator). Routes
// are planned with A* over obstacle grids; planning cost is strongly
// data-dependent (expanded-node count), which makes the domain another
// "no reasonable cost model" source.
package terrain

import (
	"container/heap"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// Grid is an obstacle grid: '.' passable, '#' blocked. Named locations map
// to cells.
type Grid struct {
	W, H      int
	blocked   []bool
	locations map[string][2]int
}

// NewGrid builds a grid from rows of '.'/'#' characters.
func NewGrid(rows []string) (*Grid, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("empty grid")
	}
	w := len(rows[0])
	g := &Grid{W: w, H: len(rows), blocked: make([]bool, w*len(rows)), locations: map[string][2]int{}}
	for y, r := range rows {
		if len(r) != w {
			return nil, fmt.Errorf("row %d has width %d, want %d", y, len(r), w)
		}
		for x, c := range r {
			switch c {
			case '#':
				g.blocked[y*w+x] = true
			case '.':
			default:
				return nil, fmt.Errorf("bad cell %q at (%d,%d)", c, x, y)
			}
		}
	}
	return g, nil
}

// AddLocation names a passable cell.
func (g *Grid) AddLocation(name string, x, y int) error {
	if x < 0 || x >= g.W || y < 0 || y >= g.H {
		return fmt.Errorf("location %q at (%d,%d) outside grid", name, x, y)
	}
	if g.blocked[y*g.W+x] {
		return fmt.Errorf("location %q at (%d,%d) is blocked", name, x, y)
	}
	g.locations[name] = [2]int{x, y}
	return nil
}

// CostParams model the planner's compute cost.
type CostParams struct {
	PerCall time.Duration
	PerNode time.Duration // per A* node expansion
}

// DefaultCostParams make long plans visibly expensive.
var DefaultCostParams = CostParams{
	PerCall: 25 * time.Millisecond,
	PerNode: 40 * time.Microsecond,
}

// Planner is the terrain domain.
type Planner struct {
	name   string
	params CostParams

	mu   sync.RWMutex
	grid *Grid
}

// New creates the planner over a grid.
func New(name string, g *Grid) *Planner {
	return &Planner{name: name, params: DefaultCostParams, grid: g}
}

// Name implements domain.Domain.
func (p *Planner) Name() string { return p.name }

// Functions implements domain.Domain.
func (p *Planner) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{
		{Name: "findrte", Arity: 2, Doc: "findrte(from, to): a route between named locations"},
		{Name: "dist", Arity: 2, Doc: "dist(from, to): route length in cells"},
		{Name: "locations", Arity: 0, Doc: "locations(): known location names"},
	}
}

// Call implements domain.Domain.
func (p *Planner) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ctx.Clock.Sleep(p.params.PerCall)
	switch fn {
	case "locations":
		if len(args) != 0 {
			return nil, fmt.Errorf("locations/0 called with %d args", len(args))
		}
		names := make([]string, 0, len(p.grid.locations))
		for n := range p.grid.locations {
			names = append(names, n)
		}
		slices.Sort(names)
		out := make([]term.Value, len(names))
		for i, n := range names {
			out[i] = term.Str(n)
		}
		return domain.NewSliceStream(out), nil
	case "findrte", "dist":
		if len(args) != 2 {
			return nil, fmt.Errorf("%s/2 called with %d args", fn, len(args))
		}
		from, ok1 := args[0].(term.Str)
		to, ok2 := args[1].(term.Str)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("%s expects location names, got %s, %s", fn, args[0], args[1])
		}
		src, ok := p.grid.locations[string(from)]
		if !ok {
			return nil, fmt.Errorf("unknown location %q", string(from))
		}
		dst, ok := p.grid.locations[string(to)]
		if !ok {
			return nil, fmt.Errorf("unknown location %q", string(to))
		}
		path, expanded := p.grid.astar(src, dst)
		ctx.Clock.Sleep(time.Duration(expanded) * p.params.PerNode)
		if path == nil {
			return domain.NewSliceStream(nil), nil // no route: empty answer set
		}
		if fn == "dist" {
			return domain.NewSliceStream([]term.Value{term.Int(len(path) - 1)}), nil
		}
		return domain.NewSliceStream([]term.Value{routeValue(path)}), nil
	}
	return nil, fmt.Errorf("%w: %s:%s", domain.ErrUnknownFunction, p.name, fn)
}

// routeValue encodes a path as a record {len, waypoints}.
func routeValue(path [][2]int) term.Value {
	var b strings.Builder
	for i, c := range path {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d,%d", c[0], c[1])
	}
	return term.NewRecord(
		term.Field{Name: "len", Val: term.Int(int64(len(path) - 1))},
		term.Field{Name: "waypoints", Val: term.Str(b.String())},
	)
}

// pqItem is an A* frontier entry.
type pqItem struct {
	cell int
	f    int
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(a, b int) bool { return q[a].f < q[b].f }
func (q pq) Swap(a, b int)      { q[a], q[b] = q[b], q[a] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// astar plans a 4-connected shortest path, returning the path (or nil) and
// the number of expanded nodes (the compute-cost driver).
func (g *Grid) astar(src, dst [2]int) (path [][2]int, expanded int) {
	start := src[1]*g.W + src[0]
	goal := dst[1]*g.W + dst[0]
	h := func(c int) int {
		x, y := c%g.W, c/g.W
		return abs(x-dst[0]) + abs(y-dst[1])
	}
	dist := make(map[int]int, 64)
	prev := make(map[int]int, 64)
	dist[start] = 0
	frontier := &pq{{cell: start, f: h(start)}}
	for frontier.Len() > 0 {
		it := heap.Pop(frontier).(pqItem)
		d, seen := dist[it.cell]
		if !seen || it.f > d+h(it.cell) {
			continue
		}
		expanded++
		if it.cell == goal {
			// Reconstruct.
			for c := goal; ; {
				path = append([][2]int{{c % g.W, c / g.W}}, path...)
				if c == start {
					return path, expanded
				}
				c = prev[c]
			}
		}
		x, y := it.cell%g.W, it.cell/g.W
		for _, nb := range [][2]int{{x + 1, y}, {x - 1, y}, {x, y + 1}, {x, y - 1}} {
			if nb[0] < 0 || nb[0] >= g.W || nb[1] < 0 || nb[1] >= g.H {
				continue
			}
			nc := nb[1]*g.W + nb[0]
			if g.blocked[nc] {
				continue
			}
			nd := dist[it.cell] + 1
			if old, ok := dist[nc]; !ok || nd < old {
				dist[nc] = nd
				prev[nc] = it.cell
				heap.Push(frontier, pqItem{cell: nc, f: nd + h(nc)})
			}
		}
	}
	return nil, expanded
}
