package engine

import "slices"

// topK returns the k smallest elements under cmp, in ascending order —
// what ORDER BY … LIMIT k needs — without sorting the rest: a bounded
// max-heap of the best k candidates makes selection O(n log k) instead of
// O(n log n), and the n−k losers are never reordered or retained. The
// paper's top-k templates ("newest 10 comments", "top 50 best sellers")
// scan many base rows to keep a handful, which is exactly this shape.
//
// cmp must be a total order on row *content* (the engine's comparators
// tie-break on the full row), so elements that compare equal are identical
// and the selection is deterministic: the result is byte-for-byte the
// prefix a stable full sort would have produced.
//
// A caller that sees its candidates one at a time runs the same selection
// in pieces — see orderedSink, which keeps only the k survivors.
func topK[T any](items []T, k int, cmp func(a, b T) int) []T {
	if k <= 0 {
		return nil
	}
	if k >= len(items) {
		slices.SortStableFunc(items, cmp)
		return items
	}
	h := items[:k:k]
	heapify(h, cmp)
	for _, it := range items[k:] {
		if cmp(it, h[0]) < 0 {
			h[0] = it
			siftDown(h, 0, cmp)
		}
	}
	heapSort(h, cmp)
	return h
}

// heapify arranges h into a max-heap under cmp.
func heapify[T any](h []T, cmp func(a, b T) int) {
	for i := len(h) / 2; i >= 0; i-- {
		siftDown(h, i, cmp)
	}
}

// heapSort sorts a max-heap ascending: repeatedly swap the current maximum
// to the end of the shrinking heap.
func heapSort[T any](h []T, cmp func(a, b T) int) {
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], 0, cmp)
	}
}

// siftDown restores the max-heap property at index i of h.
func siftDown[T any](h []T, i int, cmp func(a, b T) int) {
	for {
		big := i
		if l := 2*i + 1; l < len(h) && cmp(h[big], h[l]) < 0 {
			big = l
		}
		if r := 2*i + 2; r < len(h) && cmp(h[big], h[r]) < 0 {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}
