package dcsm

import (
	"math/bits"
	"sync/atomic"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// maskIndex answers "which records of this function carry these values at
// these argument positions" for one dimension mask. It exists from the
// first estimate that asks for its mask; heads is nil while it is unbuilt
// (just created, or dropped because the records under it moved) and is
// folded from the group's records by the next estimate that needs it.
type maskIndex struct {
	mask uint64
	// serves counts the raw estimates this index answered since the last
	// AutoTune: the access pattern §6.2.2 turns into summary tables.
	serves atomic.Int64

	heads map[uint64]int32 // hash of the masked argument tuple -> its newest row
	rows  []indexRow
	// One of the two holds the rows that aggregate more than one record.
	// folds, when RecencyHalfLife is 0: the running sums, accumulated in
	// recording order with weight 1 — exactly what a scan over the matching
	// records computes, so the vector is bit-identical. members, when it is
	// not: weights then depend on the estimate's clock reading, so the row
	// lists its records, oldest first, and the fold runs at lookup.
	folds   []fold
	members [][]int32
}

// indexRow stands for the records sharing one masked argument tuple. It
// holds no pointers: the key values are read off the row's first record,
// and so is the whole estimate while that record is the only one (most rows
// of a workload of mostly distinct calls, which is why the sums live aside).
type indexRow struct {
	first int32 // index of the first record with this tuple
	next  int32 // next row whose tuple hashes alike, -1 at the end
	multi int32 // its slot in folds or members, -1 while first is its only record
}

func (ix *maskIndex) built() bool { return ix.heads != nil }

// fold accumulates weighted cost components: the one aggregation behind
// both raw estimates and summary rows (§6.2.1: group, average, count).
type fold struct {
	sumTf, sumTa, sumCard float64
	weights
}

// weights are the total weight each component was averaged over: a record
// that missed a component does not count toward it.
type weights struct{ wTf, wTa, wCard float64 }

func (f *fold) add(r *Record, w float64) {
	if r.HasTf {
		f.sumTf += w * float64(r.Cost.TFirst)
		f.wTf += w
	}
	if r.HasTa {
		f.sumTa += w * float64(r.Cost.TAll)
		f.wTa += w
	}
	if r.HasCard {
		f.sumCard += w * r.Cost.Card
		f.wCard += w
	}
}

// mean divides each sum by its weight, once; a component no record
// carried reads 0.
func (f *fold) mean() domain.CostVector {
	var cv domain.CostVector
	if f.wTf > 0 {
		cv.TFirst = time.Duration(f.sumTf / f.wTf)
	}
	if f.wTa > 0 {
		cv.TAll = time.Duration(f.sumTa / f.wTa)
	}
	if f.wCard > 0 {
		cv.Card = f.sumCard / f.wCard
	}
	return cv
}

// vector is the estimate the fold stands for.
func (f *fold) vector() (domain.CostVector, bool) { return f.estimate(f.mean()) }

// estimate turns component means into an estimate, filling gaps
// conservatively: a missing Ta is Tf, a missing Card is 1. ok is false when
// no record contributed anything.
func (w weights) estimate(mean domain.CostVector) (domain.CostVector, bool) {
	if w.wTf == 0 && w.wTa == 0 && w.wCard == 0 {
		return domain.CostVector{}, false
	}
	if w.wTa == 0 {
		mean.TAll = mean.TFirst
	}
	if w.wCard == 0 {
		mean.Card = 1
	}
	return mean, true
}

// hashTuple folds the per-argument hashes at the mask's positions. Only
// those positions are read, so argHashes may end after the mask's highest.
func hashTuple(mask uint64, argHashes []uint64) uint64 {
	h := uint64(14695981039346656037)
	for ; mask != 0; mask &= mask - 1 {
		h = (h ^ argHashes[bits.TrailingZeros64(mask)]) * 1099511628211
	}
	return h
}

// hashArgs appends the hash of every argument to buf.
func hashArgs(buf []uint64, args []term.Value) []uint64 {
	for _, a := range args {
		buf = append(buf, term.Hash(a))
	}
	return buf
}

// find returns the row whose tuple equals vals at every masked position,
// or -1, and the head of the chain h hashes to (-1 when there is none).
func (ix *maskIndex) find(recs []Record, h uint64, vals []term.Value) (row, head int32) {
	head, ok := ix.heads[h]
	if !ok {
		return -1, -1
	}
	for row = head; row >= 0; row = ix.rows[row].next {
		args := recs[ix.rows[row].first].Call.Args
		match := true
		for m := ix.mask; m != 0 && match; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			match = term.Equal(args[i], vals[i])
		}
		if match {
			return row, head
		}
	}
	return -1, head
}

// add folds record i into its row, creating the row on first sight.
func (ix *maskIndex) add(recs []Record, i int, argHashes []uint64, members bool) {
	rec := &recs[i]
	h := hashTuple(ix.mask, argHashes)
	row, head := ix.find(recs, h, rec.Call.Args)
	if row < 0 {
		ix.heads[h] = int32(len(ix.rows))
		ix.rows = append(ix.rows, indexRow{first: int32(i), next: head, multi: -1})
		return
	}
	r := &ix.rows[row]
	if members {
		if r.multi < 0 {
			r.multi = int32(len(ix.members))
			ix.members = append(ix.members, []int32{r.first})
		}
		ix.members[r.multi] = append(ix.members[r.multi], int32(i))
		return
	}
	if r.multi < 0 {
		r.multi = int32(len(ix.folds))
		ix.folds = append(ix.folds, fold{})
		ix.folds[r.multi].add(&recs[r.first], 1)
	}
	ix.folds[r.multi].add(rec, 1)
}

// index returns the group's index for a mask, built. With build unset it
// only reads, and reports ok=false when the index is missing or unbuilt.
func (g *group) index(mask uint64, build, members bool) (ix *maskIndex, ok bool) {
	ix = g.indexes[mask]
	if ix != nil && ix.built() {
		return ix, true
	}
	if !build {
		return nil, false
	}
	if ix == nil {
		ix = &maskIndex{mask: mask}
		if g.indexes == nil {
			g.indexes = make(map[uint64]*maskIndex)
		}
		g.indexes[mask] = ix
	}
	ix.heads = make(map[uint64]int32)
	var buf [8]uint64
	for i := range g.recs {
		ix.add(g.recs, i, hashArgs(buf[:0], g.recs[i].Call.Args), members)
	}
	return ix, true
}

// indexLast folds the newest record into every built index.
func (g *group) indexLast(members bool) {
	var buf [8]uint64
	var argHashes []uint64
	for _, ix := range g.indexes {
		if !ix.built() {
			continue
		}
		if argHashes == nil {
			argHashes = hashArgs(buf[:0], g.recs[len(g.recs)-1].Call.Args)
		}
		ix.add(g.recs, len(g.recs)-1, argHashes, members)
	}
}

// dropIndexes discards every index's rows, keeping the serve counters.
func (g *group) dropIndexes() {
	for _, ix := range g.indexes {
		ix.heads, ix.rows, ix.folds, ix.members = nil, nil, nil, nil
	}
}

// probe estimates a pattern from the rows of one index: the raw
// aggregation of §6.2, as a lookup. vals are the pattern's arguments (nil
// where $b) and argHashes their hashes.
func (db *DB) probe(g *group, ix *maskIndex, vals []term.Value, argHashes []uint64) (domain.CostVector, bool) {
	row, _ := ix.find(g.recs, hashTuple(ix.mask, argHashes), vals)
	if row < 0 {
		return domain.CostVector{}, false
	}
	r := ix.rows[row]
	if r.multi >= 0 && db.cfg.RecencyHalfLife <= 0 {
		return ix.folds[r.multi].vector()
	}
	one := [1]int32{r.first}
	recs := one[:]
	if r.multi >= 0 {
		recs = ix.members[r.multi]
	}
	now := db.now()
	var f fold
	for _, i := range recs {
		rec := &g.recs[i]
		f.add(rec, db.weight(rec, now))
	}
	return f.vector()
}
