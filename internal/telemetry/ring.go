package telemetry

// Ring is a bounded FIFO buffer: it grows until it holds its capacity,
// then each Push overwrites the oldest value. It has no lock of its own —
// every owner (Tracer, JobTrace, the server's job timelines, the metrics
// history sampler) already serializes access under its own mutex.
type Ring[T any] struct {
	buf  []T // len == cap once full
	head int // index of the oldest value once full
	cap  int
}

// NewRing builds an empty ring holding at most capacity values
// (capacity > 0).
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{cap: capacity}
}

// Push appends v, evicting the oldest value when the ring is full, and
// reports whether it evicted one — owners count their drops from it.
func (r *Ring[T]) Push(v T) (evicted bool) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
		return false
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % r.cap
	return true
}

// Len returns the number of retained values.
func (r *Ring[T]) Len() int { return len(r.buf) }

// At returns the i-th retained value, oldest first (0 <= i < Len).
func (r *Ring[T]) At(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

// Slice returns a copy of the retained values, oldest first.
func (r *Ring[T]) Slice() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}
