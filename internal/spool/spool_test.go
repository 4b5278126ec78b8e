package spool

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestLateJoinerReplaysPrefix(t *testing.T) {
	var l Log[string]
	l.Push("a", 1*time.Millisecond)
	l.Push("b", 2*time.Millisecond)

	// A reader attaching now replays what it missed, with the producer's
	// stamps, then finds the next index pending.
	for i, want := range []Item[string]{{"a", time.Millisecond}, {"b", 2 * time.Millisecond}} {
		it, st, wake := l.Probe(i)
		if st != Ready || it != want || wake != nil {
			t.Fatalf("Probe(%d) = (%+v, %v, %v), want (%+v, Ready, nil)", i, it, st, wake, want)
		}
	}
	_, st, wake := l.Probe(2)
	if st != Pending || wake == nil {
		t.Fatalf("Probe(2) = (%v, %v), want Pending with a wake channel", st, wake)
	}
	select {
	case <-wake:
		t.Fatal("wake channel closed with no state change")
	default:
	}

	// The next push wakes the waiter and resolves the index.
	l.Push("c", 3*time.Millisecond)
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		t.Fatal("push did not close the wake channel")
	}
	if it, st := l.Wait(2, nil); st != Ready || it.V != "c" || it.At != 3*time.Millisecond {
		t.Fatalf("Wait(2) = (%+v, %v)", it, st)
	}
	if _, _, ended := l.End(); ended {
		t.Fatal("End reports an open log as ended")
	}
}

func TestItemsBeforeSettleErrorThenError(t *testing.T) {
	var l Log[int]
	boom := errors.New("boom")
	l.Push(1, time.Millisecond)
	l.Push(2, 2*time.Millisecond)
	l.Settle(boom, 5*time.Millisecond)
	l.Push(3, 6*time.Millisecond) // a settled log is final

	for i, want := range []int{1, 2} {
		if it, st := l.Wait(i, nil); st != Ready || it.V != want {
			t.Fatalf("Wait(%d) = (%+v, %v), want %d", i, it, st, want)
		}
	}
	if _, st := l.Wait(2, nil); st != Ended {
		t.Fatalf("Wait(2) = %v, want Ended", st)
	}
	endAt, err, ended := l.End()
	if !ended || err != boom || endAt != 5*time.Millisecond {
		t.Fatalf("End() = (%v, %v, %v), want (5ms, boom, true)", endAt, err, ended)
	}
	if got := l.Values(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Values() = %v, want [1 2]", got)
	}
}

func TestCancelWhilePendingConsumesNothing(t *testing.T) {
	var l Log[int]
	cancel := make(chan struct{})
	got := make(chan State, 1)
	go func() {
		_, st := l.Wait(0, cancel)
		got <- st
	}()
	close(cancel)
	if st := <-got; st != Pending {
		t.Fatalf("cancelled Wait = %v, want Pending", st)
	}
	// The same index is still there for the reader's next attempt.
	l.Push(7, time.Millisecond)
	if it, st := l.Wait(0, cancel); st != Ready || it.V != 7 {
		t.Fatalf("Wait after cancel = (%+v, %v), want the item (a resolved index beats a fired cancel)", it, st)
	}
}

func TestSecondSettleIgnored(t *testing.T) {
	var l Log[int]
	first := errors.New("first")
	_, _, wake := l.Probe(0)
	l.Settle(first, time.Millisecond)
	select {
	case <-wake:
	default:
		t.Fatal("settle did not close the wake channel")
	}
	l.Settle(nil, time.Second)
	if endAt, err, ended := l.End(); !ended || err != first || endAt != time.Millisecond {
		t.Fatalf("End() = (%v, %v, %v), want the first settle", endAt, err, ended)
	}
}

func TestOneProducerEightReaders(t *testing.T) {
	const n, readers = 500, 8
	var l Log[int]
	var wg sync.WaitGroup
	seqs := make([][]Item[int], readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				it, st := l.Wait(i, nil)
				if st != Ready {
					return
				}
				seqs[r] = append(seqs[r], it)
			}
		}(r)
	}
	for i := 0; i < n; i++ {
		l.Push(i, time.Duration(i))
	}
	l.Settle(nil, n)
	wg.Wait()
	for r, seq := range seqs {
		if len(seq) != n {
			t.Fatalf("reader %d saw %d items, want %d", r, len(seq), n)
		}
		for i, it := range seq {
			if it.V != i || it.At != time.Duration(i) {
				t.Fatalf("reader %d item %d = %+v", r, i, it)
			}
		}
	}
}
