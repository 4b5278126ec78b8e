// Package spatial implements the spatial-data source domain: named 2-D
// point files with range queries. It exists chiefly to support the paper's
// motivating invariant example —
//
//	Dist > 142 => spatial:range('map1', X, Y, Dist) = spatial:range('points', X, Y, 142).
//
// — where knowledge that all points lie within a 100×100 square lets the
// CIM clamp an over-wide range query to the smallest admissible one.
package spatial

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// Point is a named 2-D point.
type Point struct {
	ID   string
	X, Y float64
}

// CostParams model the index compute cost.
type CostParams struct {
	PerCall   time.Duration
	PerCell   time.Duration // per grid cell visited
	PerPoint  time.Duration // per candidate point tested
	PerResult time.Duration
}

// DefaultCostParams are index-like constants.
var DefaultCostParams = CostParams{
	PerCall:   3 * time.Millisecond,
	PerCell:   20 * time.Microsecond,
	PerPoint:  5 * time.Microsecond,
	PerResult: 3 * time.Microsecond,
}

const gridCells = 16

// file is one named point set with a uniform grid index.
type file struct {
	points                 []Point
	minX, minY, maxX, maxY float64
	cellW, cellH           float64
	grid                   [][]int // cell -> point indices
}

// Store is the spatial domain: a set of named point files.
type Store struct {
	name   string
	params CostParams

	mu    sync.RWMutex
	files map[string]*file
}

// New creates an empty spatial store.
func New(name string) *Store {
	return &Store{name: name, params: DefaultCostParams, files: make(map[string]*file)}
}

// AddFile registers a point file and builds its grid index.
func (s *Store) AddFile(name string, pts []Point) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.files[name]; dup {
		return fmt.Errorf("spatial file %q already exists", name)
	}
	f := &file{points: append([]Point(nil), pts...)}
	if len(pts) > 0 {
		f.minX, f.minY = math.Inf(1), math.Inf(1)
		f.maxX, f.maxY = math.Inf(-1), math.Inf(-1)
		for _, p := range pts {
			f.minX = math.Min(f.minX, p.X)
			f.minY = math.Min(f.minY, p.Y)
			f.maxX = math.Max(f.maxX, p.X)
			f.maxY = math.Max(f.maxY, p.Y)
		}
	}
	f.cellW = (f.maxX - f.minX) / gridCells
	f.cellH = (f.maxY - f.minY) / gridCells
	if f.cellW <= 0 {
		f.cellW = 1
	}
	if f.cellH <= 0 {
		f.cellH = 1
	}
	f.grid = make([][]int, gridCells*gridCells)
	for i, p := range f.points {
		c := f.cellOf(p.X, p.Y)
		f.grid[c] = append(f.grid[c], i)
	}
	s.files[name] = f
	return nil
}

// MustAddFile adds a file or panics.
func (s *Store) MustAddFile(name string, pts []Point) {
	if err := s.AddFile(name, pts); err != nil {
		panic(err)
	}
}

// cellOf returns the grid cell holding (x, y), clamped to the grid.
func (f *file) cellOf(x, y float64) int {
	return cellIndex((y-f.minY)/f.cellH)*gridCells + cellIndex((x-f.minX)/f.cellW)
}

// cellIndex clamps a grid coordinate to [0, gridCells-1] while it is still
// a float: Go leaves an out-of-range float-to-int conversion to the
// platform, so a huge range radius would land in an arbitrary cell. NaN
// clamps to 0.
func cellIndex(c float64) int {
	if !(c >= 0) {
		return 0
	}
	if c >= gridCells {
		return gridCells - 1
	}
	return int(c)
}

// Name implements domain.Domain.
func (s *Store) Name() string { return s.name }

// Functions implements domain.Domain.
func (s *Store) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{
		{Name: "range", Arity: 4, Doc: "range(file, x, y, dist): points within dist of (x,y)"},
		{Name: "nearest", Arity: 3, Doc: "nearest(file, x, y): closest point"},
		{Name: "count", Arity: 1, Doc: "count(file): number of points"},
	}
}

func numArg(args []term.Value, i int) (float64, error) {
	f, ok := term.Numeric(args[i])
	if !ok {
		return 0, fmt.Errorf("argument %d must be numeric, got %s", i+1, args[i])
	}
	return f, nil
}

// Call implements domain.Domain.
func (s *Store) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ctx.Clock.Sleep(s.params.PerCall)
	fileArg := func() (*file, error) {
		name, ok := args[0].(term.Str)
		if !ok {
			return nil, fmt.Errorf("argument 1 must be a file name, got %s", args[0])
		}
		f, found := s.files[string(name)]
		if !found {
			return nil, fmt.Errorf("no spatial file %q in %s", string(name), s.name)
		}
		return f, nil
	}
	switch fn {
	case "count":
		if len(args) != 1 {
			return nil, fmt.Errorf("count/1 called with %d args", len(args))
		}
		f, err := fileArg()
		if err != nil {
			return nil, err
		}
		return domain.NewSliceStream([]term.Value{term.Int(len(f.points))}), nil

	case "range":
		if len(args) != 4 {
			return nil, fmt.Errorf("range/4 called with %d args", len(args))
		}
		f, err := fileArg()
		if err != nil {
			return nil, err
		}
		x, err := numArg(args, 1)
		if err != nil {
			return nil, err
		}
		y, err := numArg(args, 2)
		if err != nil {
			return nil, err
		}
		dist, err := numArg(args, 3)
		if err != nil {
			return nil, err
		}
		cells, tested, out := f.rangeQuery(x, y, dist)
		ctx.Clock.Sleep(time.Duration(cells)*s.params.PerCell +
			time.Duration(tested)*s.params.PerPoint +
			time.Duration(len(out))*s.params.PerResult)
		return domain.NewSliceStream(out), nil

	case "nearest":
		if len(args) != 3 {
			return nil, fmt.Errorf("nearest/3 called with %d args", len(args))
		}
		f, err := fileArg()
		if err != nil {
			return nil, err
		}
		x, err := numArg(args, 1)
		if err != nil {
			return nil, err
		}
		y, err := numArg(args, 2)
		if err != nil {
			return nil, err
		}
		if len(f.points) == 0 {
			return domain.NewSliceStream(nil), nil
		}
		best, bestD := 0, math.Inf(1)
		for i, p := range f.points {
			d := math.Hypot(p.X-x, p.Y-y)
			if d < bestD {
				best, bestD = i, d
			}
		}
		ctx.Clock.Sleep(time.Duration(len(f.points)) * s.params.PerPoint)
		p := f.points[best]
		return domain.NewSliceStream([]term.Value{pointRecord(p)}), nil
	}
	return nil, fmt.Errorf("%w: %s:%s", domain.ErrUnknownFunction, s.name, fn)
}

func pointRecord(p Point) term.Value {
	return term.NewRecord(
		term.Field{Name: "id", Val: term.Str(p.ID)},
		term.Field{Name: "x", Val: term.Float(p.X)},
		term.Field{Name: "y", Val: term.Float(p.Y)},
	)
}

// rangeQuery runs a grid-pruned circular range query, returning the number
// of cells visited, points tested, and the matching point records ordered
// by id for determinism.
func (f *file) rangeQuery(x, y, dist float64) (cells, tested int, out []term.Value) {
	if len(f.points) == 0 {
		return 0, 0, nil
	}
	loC := f.cellOf(x-dist, y-dist)
	hiC := f.cellOf(x+dist, y+dist)
	loX, loY := loC%gridCells, loC/gridCells
	hiX, hiY := hiC%gridCells, hiC/gridCells
	var hits []Point
	for cy := loY; cy <= hiY; cy++ {
		for cx := loX; cx <= hiX; cx++ {
			cells++
			for _, pi := range f.grid[cy*gridCells+cx] {
				tested++
				p := f.points[pi]
				if math.Hypot(p.X-x, p.Y-y) <= dist {
					hits = append(hits, p)
				}
			}
		}
	}
	sort.Slice(hits, func(a, b int) bool { return hits[a].ID < hits[b].ID })
	out = make([]term.Value, len(hits))
	for i, p := range hits {
		out[i] = pointRecord(p)
	}
	return cells, tested, out
}
