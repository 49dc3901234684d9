package sim

// Queue is an unbounded FIFO connecting simulated processes. Pop blocks the
// calling process until an item is available; Push never blocks. It is the
// simulation analogue of a Go channel and is used for intra-host IPC rings,
// NIC completion delivery, and control-plane mailboxes.
//
// Storage is a slice with a chasing head index rather than items[1:]
// re-slicing: slicing off the front discards capacity, which made every
// steady-state push/pop pair reallocate. The head compacts once the consumed
// prefix dominates, bounding the footprint at amortized O(1) per item.
type Queue[T any] struct {
	eng   *Engine
	items []T
	head  int
	avail *Signal
}

// NewQueue returns an empty queue bound to the engine.
func NewQueue[T any](eng *Engine) *Queue[T] {
	return &Queue[T]{eng: eng, avail: NewSignal(eng)}
}

// Push appends an item and wakes one waiting consumer, if any.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	q.avail.Signal()
}

// take removes and returns the head item; callers guarantee Len() > 0.
func (q *Queue[T]) take() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero // drop references so consumed rows don't pin
	q.head++
	switch {
	case q.head == len(q.items):
		q.items = q.items[:0]
		q.head = 0
	case q.head >= 64 && q.head*2 >= len(q.items):
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v
}

// Pop removes and returns the oldest item, parking the calling process until
// one is available.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.Len() == 0 {
		q.avail.Wait(p)
	}
	return q.take()
}

// Await is Pop's wait for a chain of steps (see Signal.Await): a Step that
// finds the queue empty returns q.Await(), and its chain goes on with the
// next Step once an item is pushed. That Step takes the item with TryPop.
func (q *Queue[T]) Await() (Duration, bool) { return q.avail.Await() }

// PopTimeout is like Pop but gives up after d, reporting ok=false.
func (q *Queue[T]) PopTimeout(p *Proc, d Duration) (v T, ok bool) {
	deadline := q.eng.after(d)
	for q.Len() == 0 {
		remaining := deadline - q.eng.Now()
		if remaining <= 0 || !q.avail.WaitTimeout(p, remaining) {
			if q.Len() > 0 {
				break
			}
			return v, false
		}
	}
	return q.take(), true
}

// PushFront re-queues an item at the head — used by drivers that popped
// work they could not complete (e.g. a full downstream ring).
func (q *Queue[T]) PushFront(v T) {
	if q.head > 0 {
		q.head--
		q.items[q.head] = v
	} else {
		q.items = append(q.items, v)
		copy(q.items[1:], q.items)
		q.items[0] = v
	}
	q.avail.Signal()
}

// TryPop removes and returns the oldest item without blocking.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	return q.take(), true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }
