package dcsm

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// The statistics cache is the mediator's accumulated knowledge about its
// sources; persisting it across runs is what makes a restarted mediator
// immediately well-informed. Save/Load use a versioned JSON snapshot that
// carries both the raw cost vector database and the summary tables
// (summaries are not always derivable: the raw detail may have been
// dropped). The per-mask indexes and the access counters are not part of
// it: a loaded module rebuilds each index at the first estimate that asks.

const snapshotVersion = 1

// Args and DimVals hold term.EncodeJSONs arrays, which json.Encoder
// re-emits as they are.
type snapshotRecord struct {
	Domain   string          `json:"domain"`
	Function string          `json:"function"`
	Args     json.RawMessage `json:"args"`
	TfNs     int64           `json:"tf"`
	TaNs     int64           `json:"ta"`
	Card     float64         `json:"card"`
	HasTf    bool            `json:"hasTf"`
	HasTa    bool            `json:"hasTa"`
	HasCard  bool            `json:"hasCard"`
	AtNs     int64           `json:"at"`
}

type snapshotRow struct {
	DimVals json.RawMessage `json:"dims"`
	TfNs    int64           `json:"tf"`
	TaNs    int64           `json:"ta"`
	Card    float64         `json:"card"`
	L       int             `json:"l"`
	WTf     float64         `json:"wTf"`
	WTa     float64         `json:"wTa"`
	WCard   float64         `json:"wCard"`
}

type snapshotTable struct {
	Domain   string        `json:"domain"`
	Function string        `json:"function"`
	Arity    int           `json:"arity"`
	Dims     []int         `json:"dims"`
	BuiltNs  int64         `json:"builtAt"`
	Rows     []snapshotRow `json:"rows"`
}

type snapshot struct {
	Version int              `json:"version"`
	Records []snapshotRecord `json:"records"`
	Tables  []snapshotTable  `json:"tables"`
}

// Save writes the module's full state (raw records and summary tables) as
// JSON. Functions and tables are emitted in sorted key order, so saving the
// same state twice writes the same bytes. A record or summary row holding
// a value that has no JSON form (a NaN or ±Inf float) is left out.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	snap := snapshot{Version: snapshotVersion}
	for _, k := range db.sortedKeys() {
		for _, rec := range db.groups[k].recs {
			args, err := term.EncodeJSONs(rec.Call.Args)
			if err != nil {
				continue
			}
			snap.Records = append(snap.Records, snapshotRecord{
				Domain: rec.Call.Domain, Function: rec.Call.Function, Args: args,
				TfNs: int64(rec.Cost.TFirst), TaNs: int64(rec.Cost.TAll), Card: rec.Cost.Card,
				HasTf: rec.HasTf, HasTa: rec.HasTa, HasCard: rec.HasCard,
				AtNs: int64(rec.RecordedAt),
			})
		}
	}
	for _, t := range db.tables() {
		st := snapshotTable{
			Domain: t.Domain, Function: t.Function, Arity: t.Arity,
			Dims: append([]int(nil), t.Dims...), BuiltNs: int64(t.BuiltAt),
		}
		for _, r := range t.Rows() {
			dims, err := term.EncodeJSONs(r.DimVals)
			if err != nil {
				continue
			}
			st.Rows = append(st.Rows, snapshotRow{
				DimVals: dims,
				TfNs:    int64(r.AvgTf), TaNs: int64(r.AvgTa), Card: r.AvgCard,
				L: r.L, WTf: r.wTf, WTa: r.wTa, WCard: r.wCard,
			})
		}
		snap.Tables = append(snap.Tables, st)
	}
	return json.NewEncoder(w).Encode(&snap)
}

// Load replaces the module's state with a snapshot previously written by
// Save. Access counters start from zero, like the state they described.
func (db *DB) Load(r io.Reader) error {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("dcsm: load: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("dcsm: load: unsupported snapshot version %d", snap.Version)
	}
	loaded := DB{groups: make(map[funcKey]*group)}
	for _, sr := range snap.Records {
		args, err := term.DecodeJSONs(sr.Args)
		if err != nil {
			return fmt.Errorf("dcsm: load: %w", err)
		}
		rec := Record{
			Call: domain.Call{Domain: sr.Domain, Function: sr.Function, Args: args},
			Cost: domain.CostVector{
				TFirst: time.Duration(sr.TfNs), TAll: time.Duration(sr.TaNs), Card: sr.Card,
			},
			HasTf: sr.HasTf, HasTa: sr.HasTa, HasCard: sr.HasCard,
			RecordedAt: time.Duration(sr.AtNs),
		}
		g := loaded.group(keyOf(rec.Call))
		g.recs = append(g.recs, rec)
	}
	for _, st := range snap.Tables {
		dims, err := normalizeDims(st.Dims, st.Arity)
		if err != nil {
			return fmt.Errorf("dcsm: load table %s:%s: %w", st.Domain, st.Function, err)
		}
		t := newTable(funcKey{st.Domain, st.Function, st.Arity}, dims, time.Duration(st.BuiltNs))
		// find reads a row's values at their argument positions, < maxDims.
		var args [maxDims]term.Value
		var argHashes [maxDims]uint64
		for _, sr := range st.Rows {
			dimVals, err := term.DecodeJSONs(sr.DimVals)
			if err != nil {
				return fmt.Errorf("dcsm: load: %w", err)
			}
			if len(dimVals) != len(dims) {
				return fmt.Errorf("dcsm: load table %s: row has %d dimension values, want %d", t.key(), len(dimVals), len(dims))
			}
			for j, d := range dims {
				args[d], argHashes[d] = dimVals[j], term.Hash(dimVals[j])
			}
			row, added := t.row(args[:], argHashes[:])
			if !added {
				return fmt.Errorf("dcsm: load table %s: two rows for %s", t.key(), sr.DimVals)
			}
			r := &t.rows[row]
			r.AvgTf, r.AvgTa, r.AvgCard = time.Duration(sr.TfNs), time.Duration(sr.TaNs), sr.Card
			r.L, r.weights = sr.L, weights{sr.WTf, sr.WTa, sr.WCard}
		}
		loaded.group(funcKey{st.Domain, st.Function, st.Arity}).setTable(t)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.groups = loaded.groups
	return nil
}
