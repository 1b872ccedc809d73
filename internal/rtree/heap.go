package rtree

// minHeap is this package's one priority queue: a binary heap of values
// ordered by their own before method. It is typed, so the best-first
// iterators push and pop their entries by value instead of boxing each one
// into an interface; how many entries a query queues is the iterator's
// business (the closest-pair stream's banded leaf expansion). The sift rules
// are container/heap's, so entries of equal priority leave in the order they
// always did.
type minHeap[T interface{ before(T) bool }] []T

func (h *minHeap[T]) push(x T) {
	q := append(*h, x)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *minHeap[T]) pop() T {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}
