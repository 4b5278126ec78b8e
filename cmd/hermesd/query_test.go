package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/term"
)

// brokenDomain's only function yields two answers and then fails.
type brokenDomain struct{}

func (brokenDomain) Name() string { return "broken" }
func (brokenDomain) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{{Name: "two_then_fail", Arity: 0}}
}
func (brokenDomain) Call(*domain.Ctx, string, []term.Value) (domain.Stream, error) {
	n := 0
	return domain.NewFuncStream(func() (term.Value, bool, error) {
		if n++; n <= 2 {
			return term.Int(int64(n)), true, nil
		}
		return nil, false, errors.New("broken: disk on fire")
	}, nil), nil
}

func getQuery(h http.Handler, q string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", "/query?q="+url.QueryEscape(q), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestQueryStreamsAnswers: /query writes one line per answer, the line
// Answer.String renders, in the order the mediator produces them; an
// answer that fails mid-stream answers 500 with only the error, none of
// the answers rendered before it.
func TestQueryStreamsAnswers(t *testing.T) {
	doms := append(BuildDomains(), brokenDomain{})
	h, _, err := newObsHandler(doms, obsOptions{Core: core.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, ref, err := newObsHandler(doms, obsOptions{Core: core.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	const q = "?- in(O, avis:frames_to_objects('rope', 4, 47)) & in(P, ingres:equal('cast', 'role', O)) & =(P.name, A)."
	answers, m, err := ref.QueryAll(q)
	if err != nil || len(answers) < 3 {
		t.Fatalf("reference run: %d answers, %v", len(answers), err)
	}
	var want strings.Builder
	for _, a := range answers {
		want.WriteString(a.String() + "\n")
	}
	want.WriteString(m.Summary()[:strings.Index(m.Summary(), ",")])
	rec := getQuery(h, q)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Body.String(); !strings.HasPrefix(got, want.String()) {
		t.Errorf("response begins\n%s\nwant\n%s", got[:min(len(got), want.Len())], want.String())
	}

	rec = getQuery(h, "?- in(X, broken:two_then_fail()).")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("mid-stream failure: HTTP %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Body.String(); !strings.Contains(got, "disk on fire") || strings.Contains(got, "X=") {
		t.Errorf("mid-stream failure body %q: want the error and no answer", got)
	}
}
