// Package spool is the one publish-then-late-joiner-replay primitive: an
// append-only, time-stamped broadcast log. A producer pushes items with the
// clock reading at which each became available and settles the log once;
// any number of readers, each keeping its own cursor, replay the prefix
// they missed and then wait for what comes next. CIM flights and the
// engine's prefetch stages are its clients; who pulls a source, what an
// aborted fetch means and how time is charged stay with them.
package spool

import (
	"sync"
	"time"
)

// Item is one logged value with its availability time on the producer's
// clock.
type Item[T any] struct {
	V  T
	At time.Duration
}

// State is what a probe of one index found.
type State int

// Probe outcomes.
const (
	// Ready: the item at the probed index is returned.
	Ready State = iota
	// Pending: the index has not been produced yet and the log is open.
	Pending
	// Ended: the log was settled before reaching the index; End says how.
	Ended
)

// Log is the broadcast log. The zero value is an empty, open log; it must
// not be copied after first use.
type Log[T any] struct {
	mu sync.Mutex
	// wake is handed to readers that find their index pending, and closed
	// and replaced on every state change. Nil while nobody waits.
	wake  chan struct{}
	items []Item[T]
	done  bool
	err   error
	endAt time.Duration
}

func (l *Log[T]) broadcastLocked() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// Push appends v, available at clock reading at. A settled log is final:
// later pushes are dropped.
func (l *Log[T]) Push(v T, at time.Duration) {
	l.mu.Lock()
	if !l.done {
		l.items = append(l.items, Item[T]{V: v, At: at})
		l.broadcastLocked()
	}
	l.mu.Unlock()
}

// Settle ends the log at clock reading endAt, with err when the producer
// failed (readers get the items that preceded the failure first). The
// first settle wins; later ones are ignored.
func (l *Log[T]) Settle(err error, endAt time.Duration) {
	l.mu.Lock()
	if !l.done {
		l.done, l.err, l.endAt = true, err, endAt
		l.broadcastLocked()
	}
	l.mu.Unlock()
}

// Probe reports index i without blocking. On Pending it also returns the
// channel that is closed at the log's next state change.
func (l *Log[T]) Probe(i int) (Item[T], State, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < len(l.items) {
		return l.items[i], Ready, nil
	}
	if l.done {
		return Item[T]{}, Ended, nil
	}
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return Item[T]{}, Pending, l.wake
}

// Wait blocks until index i is Ready or the log Ended. When cancel fires
// first it returns Pending, having consumed nothing; a nil cancel never
// fires.
func (l *Log[T]) Wait(i int, cancel <-chan struct{}) (Item[T], State) {
	for {
		it, st, wake := l.Probe(i)
		if st != Pending {
			return it, st
		}
		select {
		case <-wake:
		case <-cancel:
			return it, Pending
		}
	}
}

// End returns the settle time and error; ended is false (and the others
// zero) while the log is open.
func (l *Log[T]) End() (endAt time.Duration, err error, ended bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.endAt, l.err, l.done
}

// Values returns a copy of the values logged so far, for storing.
func (l *Log[T]) Values() []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	vals := make([]T, len(l.items))
	for i, it := range l.items {
		vals[i] = it.V
	}
	return vals
}
