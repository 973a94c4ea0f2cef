package sim

// Queue is a FIFO over a power-of-two ring buffer. It grows by doubling when
// full and never reallocates otherwise, so a queue that never fully drains
// costs nothing in steady state. The zero value is an empty queue.
type Queue[T any] struct {
	buf     []T
	head, n int // buffer index of the oldest element; element count
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// At returns a pointer to the i-th oldest element, valid until the next push.
func (q *Queue[T]) At(i int) *T {
	if uint(i) >= uint(q.n) {
		panic("sim: Queue index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Front is At(0), or nil when the queue is empty.
func (q *Queue[T]) Front() *T {
	if q.n == 0 {
		return nil
	}
	return &q.buf[q.head]
}

// Push appends x as the youngest element. A full buffer doubles (to 4 from
// empty), its elements unwrapped to the front.
func (q *Queue[T]) Push(x T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(4, 2*len(q.buf)))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = x
	q.n++
}

// PushBeforeYoungest inserts x ahead of the youngest element; into an empty
// queue it pushes x.
func (q *Queue[T]) PushBeforeYoungest(x T) {
	if q.n > 0 {
		last := q.At(q.n - 1)
		x, *last = *last, x
	}
	q.Push(x)
}

// Pop removes and returns the oldest element.
func (q *Queue[T]) Pop() T {
	p := q.At(0)
	x := *p
	*p = *new(T)
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return x
}

// Reset empties the queue, keeping its buffer.
func (q *Queue[T]) Reset() {
	clear(q.buf)
	q.head, q.n = 0, 0
}
