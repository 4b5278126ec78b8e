package engine

import "math"

// Session wraps a cursor in the paper's interactive mode of operation
// (§3): the mediator computes a first set of answers and presents them;
// the user may ask for the next batch, request all remaining answers at
// any time, or stop — stopping cancels the running source calls.
type Session struct {
	cur   *Cursor
	batch int
	done  bool
}

// NewSession starts an interactive session delivering batchSize answers
// per request (minimum 1).
func NewSession(cur *Cursor, batchSize int) *Session {
	if batchSize < 1 {
		batchSize = 1
	}
	return &Session{cur: cur, batch: batchSize}
}

// More returns the next batch. ok=false means the query is exhausted (the
// returned batch may still be non-empty when the last answers did not fill
// a batch).
func (s *Session) More() (batch []Answer, ok bool, err error) {
	if s.done {
		return nil, false, nil
	}
	for len(batch) < s.batch {
		a, cont, err := s.cur.Next()
		if err != nil {
			s.done = true
			s.cur.Close()
			return batch, false, err
		}
		if !cont {
			s.done = true
			return batch, false, nil
		}
		batch = append(batch, a)
	}
	return batch, true, nil
}

// Rest drains all remaining answers ("the user has the choice of
// requesting all the remaining answers at any time").
func (s *Session) Rest() ([]Answer, error) {
	s.batch = math.MaxInt
	out, _, err := s.More()
	return out, err
}

// Stop ends the session, cancelling running source calls.
func (s *Session) Stop() error {
	if s.done {
		return nil
	}
	s.done = true
	return s.cur.Close()
}

// Metrics exposes the underlying cursor's timings.
func (s *Session) Metrics() Metrics { return s.cur.Metrics() }
