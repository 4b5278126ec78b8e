package cim

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// Cache persistence lets a restarted mediator keep answering from prior
// results — including through source outages, which is the availability
// story of §1. Invariants are program text and are not persisted here;
// reload them with the program.

// cacheSnapshotVersion is the current snapshot format. Version 2 added
// the savings ledger; version 1 snapshots (no ledger) still load.
const cacheSnapshotVersion = 2

// Args and Answers hold term.AppendJSONs arrays, which json.Encoder
// re-emits as they are.
type cacheEntrySnapshot struct {
	Domain   string          `json:"domain"`
	Function string          `json:"function"`
	Args     json.RawMessage `json:"args"`
	Answers  json.RawMessage `json:"answers"`
	Complete bool            `json:"complete"`
	TfNs     int64           `json:"tf"`
	TaNs     int64           `json:"ta"`
	Card     float64         `json:"card"`
	LastUsed int64           `json:"lastUsed"`
}

type cacheSnapshot struct {
	Version int                  `json:"version"`
	Counter int64                `json:"counter"`
	Entries []cacheEntrySnapshot `json:"entries"`
	// Ledger is the savings ledger at save time (version >= 2; absent in
	// version 1 snapshots).
	Ledger *LedgerSnapshot `json:"ledger,omitempty"`
}

// Save writes the cache contents as JSON, entries in key order, so saving
// the same state twice writes the same bytes. An entry holding a value
// that has no JSON form (a NaN or ±Inf float) is left out, as if it had
// been evicted.
func (m *Manager) Save(w io.Writer) error {
	snap := cacheSnapshot{Version: cacheSnapshotVersion, Counter: m.counter.Load()}
	ledger := m.Ledger()
	snap.Ledger = &ledger
	entries := m.store.Snapshot()
	slices.SortFunc(entries, func(a, b *Entry) int { return strings.Compare(a.key, b.key) })
	snap.Entries = make([]cacheEntrySnapshot, 0, len(entries))
	// Every entry's value arrays are windows on one buffer. A window stays
	// valid when an append moves the buffer: the old array is not written
	// again.
	var text []byte
	for _, e := range entries {
		start := len(text)
		var err error
		if text, err = term.AppendJSONs(text, e.Call.Args); err != nil {
			continue
		}
		mid := len(text)
		if text, err = term.AppendJSONs(text, e.Answers); err != nil {
			text = text[:start]
			continue
		}
		snap.Entries = append(snap.Entries, cacheEntrySnapshot{
			Domain: e.Call.Domain, Function: e.Call.Function,
			Args: text[start:mid:mid], Answers: text[mid:len(text):len(text)], Complete: e.Complete,
			TfNs: int64(e.Cost.TFirst), TaNs: int64(e.Cost.TAll), Card: e.Cost.Card,
			LastUsed: e.lastUsed.Load(),
		})
	}
	return json.NewEncoder(w).Encode(&snap)
}

// Load replaces the cache contents with a snapshot previously written by
// Save. Budgets are enforced after loading.
func (m *Manager) Load(r io.Reader) error {
	var snap cacheSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("cim: load: %w", err)
	}
	if snap.Version < 1 || snap.Version > cacheSnapshotVersion {
		return fmt.Errorf("cim: load: unsupported snapshot version %d", snap.Version)
	}
	entries := make(map[string]*Entry, len(snap.Entries))
	for _, es := range snap.Entries {
		args, err := term.DecodeJSONs(es.Args)
		if err != nil {
			return fmt.Errorf("cim: load: %w", err)
		}
		answers, err := term.DecodeJSONs(es.Answers)
		if err != nil {
			return fmt.Errorf("cim: load: %w", err)
		}
		bytes := 0
		for _, v := range answers {
			bytes += term.SizeBytes(v)
		}
		e := &Entry{
			Call:     domain.Call{Domain: es.Domain, Function: es.Function, Args: args},
			Answers:  answers,
			Complete: es.Complete,
			Cost: domain.CostVector{
				TFirst: time.Duration(es.TfNs), TAll: time.Duration(es.TaNs), Card: es.Card,
			},
			Bytes: bytes,
		}
		e.lastUsed.Store(es.LastUsed)
		e.key = e.Call.Key()
		entries[e.key] = e
	}
	if snap.Ledger != nil {
		m.ledger.restore(*snap.Ledger)
		// A saved row whose call was not saved has no entry to live on.
		for _, r := range snap.Ledger.Entries {
			if e := entries[r.Key]; e != nil {
				e.hits.Store(r.Hits)
				e.savedNS.Store(int64(r.Saved))
			}
		}
	}
	// The load replaces whatever was cached: memo relations built from the
	// previous contents are stale, and the call index is rebuilt to match.
	prior := m.store.Snapshot()
	m.store.Replace(entries)
	calls := make([]domain.Call, 0, len(entries))
	for _, e := range entries {
		calls = append(calls, e.Call)
	}
	m.idx.ResetCalls(calls)
	for _, e := range prior {
		m.invalidate(e.key)
	}
	for {
		cur := m.counter.Load()
		if snap.Counter <= cur || m.counter.CompareAndSwap(cur, snap.Counter) {
			break
		}
	}
	m.store.Evict()
	return nil
}
