package obs

// ring is the bounded window the flight recorder keeps: the
// last len(buf) items pushed. A push overwrites the oldest in place, so an
// evicted span tree is unreachable at once rather than lingering in the
// backing array of a re-sliced append. Callers lock.
type ring[T any] struct {
	buf  []T
	next int // slot the next push writes
	n    int // items held
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, max(capacity, 1))}
}

func (r *ring[T]) push(v T) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.n = min(r.n+1, len(r.buf))
}

// newestFirst copies the window out.
func (r *ring[T]) newestFirst() []T {
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
	}
	return out
}
