package sim

import "testing"

// checkQueue compares every observable of q with the plain-slice model.
func checkQueue(t *testing.T, step int, q *Queue[int], model []int) {
	t.Helper()
	if q.Len() != len(model) {
		t.Fatalf("step %d: Len = %d, model has %d", step, q.Len(), len(model))
	}
	for i, want := range model {
		if got := *q.At(i); got != want {
			t.Fatalf("step %d: At(%d) = %d, want %d (model %v)", step, i, got, want, model)
		}
	}
	if len(model) > 0 && *q.Front() != model[0] {
		t.Fatalf("step %d: Front = %d, want %d", step, *q.Front(), model[0])
	}
}

// TestQueueVsSliceModel drives the ring and a plain slice with the same
// random push / reorder-push / pop / reset stream. Short bursts keep the
// ring wrapped most of the time, so reorder pushes land across the wrap
// point and growth happens while the live range wraps.
func TestQueueVsSliceModel(t *testing.T) {
	rng := NewRand(99)
	var q Queue[int]
	var model []int
	next := 0
	var wrappedGrow, wrappedReorder int
	for step := 0; step < 50000; step++ {
		if rng.Intn(2000) == 0 {
			q.Reset()
			model = model[:0]
		}
		// The youngest element sits at the buffer's start, the one before
		// it at its end: a reorder push swaps across the wrap point.
		acrossWrap := q.n >= 2 && (q.head+q.n-1)&(len(q.buf)-1) == 0
		switch op := rng.Intn(20); {
		case op < 7: // push
			if q.n == len(q.buf) && q.head != 0 {
				wrappedGrow++
			}
			next++
			q.Push(next)
			model = append(model, next)
		case op < 10: // push before the youngest
			if acrossWrap {
				wrappedReorder++
			}
			next++
			q.PushBeforeYoungest(next)
			if n := len(model); n > 0 {
				model = append(model[:n-1], next, model[n-1])
			} else {
				model = append(model, next)
			}
		default: // pop
			if len(model) == 0 {
				continue
			}
			if got := q.Pop(); got != model[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, model[0])
			}
			model = model[1:]
		}
		checkQueue(t, step, &q, model)
	}
	t.Logf("%d wrapped grows, %d reorders across the wrap", wrappedGrow, wrappedReorder)
	if wrappedGrow == 0 || wrappedReorder == 0 {
		t.Fatalf("stream never exercised the wrap: %d wrapped grows, %d wrapped reorders", wrappedGrow, wrappedReorder)
	}
}

// TestQueueSteadyStateNoAlloc: a queue that never drains reuses its
// buffer once it has grown to its peak length.
func TestQueueSteadyStateNoAlloc(t *testing.T) {
	var q Queue[int]
	q.Push(0)
	q.Push(1)
	allocs := testing.AllocsPerRun(10000, func() {
		q.PushBeforeYoungest(2)
		q.Pop()
		q.Push(3)
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f times per run", allocs)
	}
}
