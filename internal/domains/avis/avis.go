// Package avis implements a content-based video information source modelled
// on the AVIS package used in the paper's experiments: videos with objects
// (characters, actors' roles) occurring over frame intervals, queried with
// functions such as frames_to_objects and object_to_frames.
//
// AVIS is the paper's canonical example of a domain with "no well-understood
// cost estimation policies": the cost of a content query here depends on the
// video's internal scene structure (number of segments intersecting the
// requested frame range), which is opaque to the mediator. That makes
// closed-form cost models and curve fitting impractical — exactly the case
// the DCSM's statistics cache targets.
package avis

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// Interval is an inclusive frame interval.
type Interval struct {
	From int
	To   int
}

// overlaps reports whether two intervals intersect.
func (iv Interval) overlaps(o Interval) bool {
	return iv.From <= o.To && o.From <= iv.To
}

// Occurrence records that an object appears in a video over a frame
// interval.
type Occurrence struct {
	Object   string
	Interval Interval
}

// CastEntry maps an actor to the role (object) they play in a video.
type CastEntry struct {
	Actor string
	Role  string
}

// Video is one entry of the store. Every value a call hands up is boxed
// once, when the video is added or its cast set, and shared by every call
// after: callers treat handed-up values as immutable.
type Video struct {
	Name   string
	Frames int
	// SizeKB is the stored media size, returned by video_size.
	SizeKB int
	// occs, sorted by Interval.From, indexed by segment; occObj[i] is
	// occs[i]'s object index.
	occs   []Occurrence
	occObj []int
	// names are the boxed objects in first-appearance order; index maps an
	// object to its position there.
	names []term.Value
	index map[string]int
	// intervals[k] lists object k's boxed <from,to> tuples in occurrence
	// order, capped; frames[k] is their frame total.
	intervals [][]term.Value
	frames    []int
	// actors are the boxed actors of the cast, in cast order; roleObj[i] is
	// the object index of actor i's role, -1 if the role never occurs.
	actors  []term.Value
	roleObj []int
}

// CostParams model the content-analysis compute cost of the store.
type CostParams struct {
	// PerCall is the fixed query overhead.
	PerCall time.Duration
	// PerSegment is charged per occurrence segment examined.
	PerSegment time.Duration
	// PerFrame is charged per frame of the requested range that must be
	// content-scanned (the data-dependent, hard-to-model component).
	PerFrame time.Duration
	// PerResult is charged per answer produced.
	PerResult time.Duration
}

// DefaultCostParams give content queries compute costs in the tens to
// hundreds of milliseconds, comparable to the local share of the paper's
// AVIS timings.
var DefaultCostParams = CostParams{
	PerCall:    18 * time.Millisecond,
	PerSegment: 350 * time.Microsecond,
	PerFrame:   900 * time.Microsecond,
	PerResult:  500 * time.Microsecond,
}

// Store is the AVIS domain: a set of videos.
type Store struct {
	name   string
	params CostParams

	mu     sync.RWMutex
	videos map[string]*Video
}

// New creates an empty AVIS store with the given mediator-visible name
// (typically "avis" or "video").
func New(name string) *Store {
	return &Store{name: name, params: DefaultCostParams, videos: make(map[string]*Video)}
}

// SetCostParams overrides the compute cost model.
func (s *Store) SetCostParams(p CostParams) { s.params = p }

// AddVideo registers a video with its object occurrences.
func (s *Store) AddVideo(name string, frames, sizeKB int, occs []Occurrence) (*Video, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.videos[name]; dup {
		return nil, fmt.Errorf("video %q already exists", name)
	}
	v := &Video{Name: name, Frames: frames, SizeKB: sizeKB, index: map[string]int{}}
	v.occs = append(v.occs, occs...)
	sort.SliceStable(v.occs, func(a, b int) bool { return v.occs[a].Interval.From < v.occs[b].Interval.From })
	v.occObj = make([]int, len(v.occs))
	for i, o := range v.occs {
		if o.Interval.From < 0 || o.Interval.To < o.Interval.From || o.Interval.To >= frames {
			return nil, fmt.Errorf("video %q: occurrence %v out of frame range [0,%d)", name, o, frames)
		}
		k, seen := v.index[o.Object]
		if !seen {
			k = len(v.names)
			v.index[o.Object] = k
			v.names = append(v.names, term.Str(o.Object))
			v.intervals = append(v.intervals, nil)
			v.frames = append(v.frames, 0)
		}
		v.occObj[i] = k
		v.intervals[k] = append(v.intervals[k], term.Tuple{term.Int(o.Interval.From), term.Int(o.Interval.To)})
		v.frames[k] += o.Interval.To - o.Interval.From + 1
	}
	v.names = slices.Clip(v.names)
	for k := range v.intervals {
		v.intervals[k] = slices.Clip(v.intervals[k])
	}
	s.videos[name] = v
	return v, nil
}

// MustAddVideo adds a video or panics; for dataset construction.
func (s *Store) MustAddVideo(name string, frames, sizeKB int, occs []Occurrence) *Video {
	v, err := s.AddVideo(name, frames, sizeKB, occs)
	if err != nil {
		panic(err)
	}
	return v
}

// Objects returns the video's objects in first-appearance order.
func (v *Video) Objects() []string {
	out := make([]string, len(v.names))
	for i, n := range v.names {
		out[i] = string(n.(term.Str))
	}
	return out
}

// SetCast attaches cast information to a video.
func (s *Store) SetCast(name string, cast []CastEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.videos[name]
	if !ok {
		return fmt.Errorf("no video %q in store %s", name, s.name)
	}
	v.actors = make([]term.Value, len(cast))
	v.roleObj = make([]int, len(cast))
	for i, c := range cast {
		v.actors[i] = term.Str(c.Actor)
		k, ok := v.index[c.Role]
		if !ok {
			k = -1
		}
		v.roleObj[i] = k
	}
	return nil
}

// Video returns a registered video.
func (s *Store) Video(name string) (*Video, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.videos[name]
	return v, ok
}

// Name implements domain.Domain.
func (s *Store) Name() string { return s.name }

// Functions implements domain.Domain.
func (s *Store) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{
		{Name: "videos", Arity: 0, Doc: "videos(): names of stored videos"},
		{Name: "video_size", Arity: 1, Doc: "video_size(v): stored size in KB"},
		{Name: "frames_to_objects", Arity: 3, Doc: "frames_to_objects(v, first, last): objects appearing in [first,last]"},
		{Name: "objects_in_range", Arity: 3, Doc: "alias of frames_to_objects exposed by AVIS's range API; the equality-invariant experiments exploit their equivalence"},
		{Name: "object_to_frames", Arity: 2, Doc: "object_to_frames(v, obj): <from,to> intervals where obj appears"},
		{Name: "objects", Arity: 1, Doc: "objects(v): all objects of the video"},
		{Name: "actors", Arity: 1, Doc: "actors(v): the video's actors"},
		{Name: "cast_members", Arity: 1, Doc: "alias of actors exposed by AVIS's cast API"},
		{Name: "actors_in_range", Arity: 3, Doc: "actors_in_range(v, first, last): actors whose role appears in [first,last]"},
	}
}

func (s *Store) video(args []term.Value, i int) (*Video, error) {
	name, ok := args[i].(term.Str)
	if !ok {
		return nil, fmt.Errorf("argument %d must be a video name, got %s", i+1, args[i])
	}
	v, ok := s.videos[string(name)]
	if !ok {
		return nil, fmt.Errorf("no video %q in store %s", string(name), s.name)
	}
	return v, nil
}

func frameArg(args []term.Value, i int) (int, error) {
	n, ok := args[i].(term.Int)
	if !ok {
		return 0, fmt.Errorf("argument %d must be a frame number, got %s", i+1, args[i])
	}
	return int(n), nil
}

// objectSet returns an empty set of the video's object indexes, in buf
// when it is large enough.
func (v *Video) objectSet(buf []uint64) []uint64 {
	n := (len(v.names) + 63) / 64
	if n > len(buf) {
		return make([]uint64, n)
	}
	return buf[:n]
}

func has(set []uint64, k int) bool { return set[k>>6]&(1<<(k&63)) != 0 }
func add(set []uint64, k int)      { set[k>>6] |= 1 << (k & 63) }

// Call implements domain.Domain. The returned stream hands up the video's
// boxed values; a call allocates only its stream and, for a range query,
// the list of its answers.
func (s *Store) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ctx.Clock.Sleep(s.params.PerCall)
	switch fn {
	case "videos":
		if len(args) != 0 {
			return nil, fmt.Errorf("videos/0 called with %d args", len(args))
		}
		names := make([]string, 0, len(s.videos))
		for n := range s.videos {
			names = append(names, n)
		}
		sort.Strings(names)
		out := make([]term.Value, len(names))
		for i, n := range names {
			out[i] = term.Str(n)
		}
		return domain.NewSliceStream(out), nil

	case "video_size":
		if len(args) != 1 {
			return nil, fmt.Errorf("video_size/1 called with %d args", len(args))
		}
		v, err := s.video(args, 0)
		if err != nil {
			return nil, err
		}
		return domain.NewSliceStream([]term.Value{term.Int(v.SizeKB)}), nil

	case "objects":
		if len(args) != 1 {
			return nil, fmt.Errorf("objects/1 called with %d args", len(args))
		}
		v, err := s.video(args, 0)
		if err != nil {
			return nil, err
		}
		ctx.Clock.Sleep(time.Duration(len(v.occs)) * s.params.PerSegment)
		ctx.Clock.Sleep(time.Duration(len(v.names)) * s.params.PerResult)
		return domain.NewSliceStream(v.names), nil

	case "frames_to_objects", "objects_in_range":
		if len(args) != 3 {
			return nil, fmt.Errorf("%s/3 called with %d args", fn, len(args))
		}
		v, err := s.video(args, 0)
		if err != nil {
			return nil, err
		}
		first, err := frameArg(args, 1)
		if err != nil {
			return nil, err
		}
		last, err := frameArg(args, 2)
		if err != nil {
			return nil, err
		}
		if last < first {
			first, last = last, first
		}
		q := Interval{From: first, To: last}
		// Content scan: cost grows with the number of segments intersecting
		// the range and with the frames each intersecting segment
		// contributes — the opaque, data-dependent behaviour the paper
		// ascribes to AVIS.
		var seenBuf [4]uint64
		var hitBuf [64]int
		seen, hits := v.objectSet(seenBuf[:]), hitBuf[:0]
		segs, frames := 0, 0
		for i, o := range v.occs {
			segs++
			if o.Interval.From > last {
				break
			}
			if !o.Interval.overlaps(q) {
				continue
			}
			lo, hi := o.Interval.From, o.Interval.To
			if lo < first {
				lo = first
			}
			if hi > last {
				hi = last
			}
			frames += hi - lo + 1
			if k := v.occObj[i]; !has(seen, k) {
				add(seen, k)
				hits = append(hits, k)
			}
		}
		out := make([]term.Value, len(hits))
		for i, k := range hits {
			out[i] = v.names[k]
		}
		ctx.Clock.Sleep(time.Duration(segs)*s.params.PerSegment +
			time.Duration(frames)*s.params.PerFrame +
			time.Duration(len(out))*s.params.PerResult)
		return domain.NewSliceStream(out), nil

	case "actors", "cast_members":
		if len(args) != 1 {
			return nil, fmt.Errorf("%s/1 called with %d args", fn, len(args))
		}
		v, err := s.video(args, 0)
		if err != nil {
			return nil, err
		}
		ctx.Clock.Sleep(time.Duration(len(v.actors)) * s.params.PerResult)
		return domain.NewSliceStream(v.actors), nil

	case "actors_in_range":
		if len(args) != 3 {
			return nil, fmt.Errorf("actors_in_range/3 called with %d args", len(args))
		}
		v, err := s.video(args, 0)
		if err != nil {
			return nil, err
		}
		first, err := frameArg(args, 1)
		if err != nil {
			return nil, err
		}
		last, err := frameArg(args, 2)
		if err != nil {
			return nil, err
		}
		if last < first {
			first, last = last, first
		}
		q := Interval{From: first, To: last}
		var presentBuf [4]uint64
		present := v.objectSet(presentBuf[:])
		for i, o := range v.occs {
			if o.Interval.overlaps(q) {
				add(present, v.occObj[i])
			}
		}
		var out []term.Value
		for i, k := range v.roleObj {
			if k >= 0 && has(present, k) {
				out = append(out, v.actors[i])
			}
		}
		ctx.Clock.Sleep(time.Duration(len(v.occs))*s.params.PerSegment +
			time.Duration(len(out))*s.params.PerResult)
		return domain.NewSliceStream(slices.Clip(out)), nil

	case "object_to_frames":
		if len(args) != 2 {
			return nil, fmt.Errorf("object_to_frames/2 called with %d args", len(args))
		}
		v, err := s.video(args, 0)
		if err != nil {
			return nil, err
		}
		obj, ok := args[1].(term.Str)
		if !ok {
			return nil, fmt.Errorf("argument 2 must be an object name, got %s", args[1])
		}
		var out []term.Value
		frames := 0
		if k, ok := v.index[string(obj)]; ok {
			out, frames = v.intervals[k], v.frames[k]
		}
		ctx.Clock.Sleep(time.Duration(len(v.occs))*s.params.PerSegment +
			time.Duration(frames/4)*s.params.PerFrame +
			time.Duration(len(out))*s.params.PerResult)
		return domain.NewSliceStream(out), nil
	}
	return nil, fmt.Errorf("%w: %s:%s", domain.ErrUnknownFunction, s.name, fn)
}
