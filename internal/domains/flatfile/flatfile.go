// Package flatfile implements the flat-file source domain: delimited record
// files scanned sequentially, one of the "standard" external domains of the
// HERMES federation. Files are registered in memory; every access is a
// full scan (no indexes), which gives the
// optimizer a usefully different cost profile from the relational source.
package flatfile

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// CostParams model scan costs.
type CostParams struct {
	PerOpen   time.Duration // file open / seek overhead
	PerRecord time.Duration // per record scanned
}

// DefaultCostParams make flat files cheap to open and linear to scan.
var DefaultCostParams = CostParams{
	PerOpen:   1500 * time.Microsecond,
	PerRecord: 9 * time.Microsecond,
}

// Store is the flat-file domain. Field separator is '|'; the first line of
// each file names the fields.
type Store struct {
	name   string
	params CostParams

	mu    sync.RWMutex
	files map[string][]string // each file's lines
}

// New creates an empty flat-file store.
func New(name string) *Store {
	return &Store{name: name, params: DefaultCostParams, files: make(map[string][]string)}
}

// RegisterContent maps a logical name to in-memory content: a header line
// naming fields, then one record per line, '|'-separated.
func (s *Store) RegisterContent(name string, lines []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[name] = append([]string(nil), lines...)
}

// Name implements domain.Domain.
func (s *Store) Name() string { return s.name }

// Functions implements domain.Domain.
func (s *Store) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{
		{Name: "scan", Arity: 1, Doc: "scan(file): every record"},
		{Name: "grep", Arity: 3, Doc: "grep(file, field, value): records whose field equals value"},
		{Name: "grep_sub", Arity: 3, Doc: "grep_sub(file, field, substr): records whose field contains substr"},
	}
}

// lines returns the file's lines.
func (s *Store) lines(name string) ([]string, error) {
	lines, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("no flat file %q in %s", name, s.name)
	}
	return lines, nil
}

// parseField converts a raw field to the most specific value kind.
func parseField(raw string) term.Value {
	raw = strings.TrimSpace(raw)
	if n, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return term.Int(n)
	}
	if f, err := strconv.ParseFloat(raw, 64); err == nil {
		return term.Float(f)
	}
	return term.Str(raw)
}

// Call implements domain.Domain.
func (s *Store) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	wantArgs := map[string]int{"scan": 1, "grep": 3, "grep_sub": 3}
	n, known := wantArgs[fn]
	if !known {
		return nil, fmt.Errorf("%w: %s:%s", domain.ErrUnknownFunction, s.name, fn)
	}
	if len(args) != n {
		return nil, fmt.Errorf("%s/%d called with %d args", fn, n, len(args))
	}
	fname, ok := args[0].(term.Str)
	if !ok {
		return nil, fmt.Errorf("argument 1 must be a file name, got %s", args[0])
	}
	ctx.Clock.Sleep(s.params.PerOpen)
	lines, err := s.lines(string(fname))
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return domain.NewSliceStream(nil), nil
	}
	header := strings.Split(lines[0], "|")
	for i := range header {
		header[i] = strings.TrimSpace(header[i])
	}
	fieldIdx := -1
	var match func(v term.Value) bool
	switch fn {
	case "grep", "grep_sub":
		fieldName, ok := args[1].(term.Str)
		if !ok {
			return nil, fmt.Errorf("argument 2 must be a field name, got %s", args[1])
		}
		for i, h := range header {
			if h == string(fieldName) {
				fieldIdx = i
				break
			}
		}
		if fieldIdx < 0 {
			return nil, fmt.Errorf("file %q has no field %q", string(fname), string(fieldName))
		}
		want := args[2]
		if fn == "grep" {
			match = func(v term.Value) bool {
				eq, err := term.OpEQ.Holds(v, want)
				return err == nil && eq
			}
		} else {
			sub, ok := want.(term.Str)
			if !ok {
				return nil, fmt.Errorf("argument 3 must be a string, got %s", want)
			}
			match = func(v term.Value) bool {
				sv, ok := v.(term.Str)
				return ok && strings.Contains(string(sv), string(sub))
			}
		}
	}
	var out []term.Value
	for _, line := range lines[1:] {
		if strings.TrimSpace(line) == "" {
			continue
		}
		parts := strings.Split(line, "|")
		fields := make([]term.Field, len(header))
		for i := range header {
			var v term.Value = term.Str("")
			if i < len(parts) {
				v = parseField(parts[i])
			}
			fields[i] = term.Field{Name: header[i], Val: v}
		}
		if match != nil {
			fv := fields[fieldIdx].Val
			if !match(fv) {
				continue
			}
		}
		out = append(out, term.NewRecord(fields...))
	}
	ctx.Clock.Sleep(time.Duration(len(lines)) * s.params.PerRecord)
	return domain.NewSliceStream(out), nil
}
