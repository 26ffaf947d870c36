package main

import (
	"cmp"
	"math"
)

// percentile returns the exact nearest-rank p-quantile of xs (p in
// [0, 1]): the smallest sample with at least a share p of the samples at
// or below it. It reorders xs in place by selection, in expected linear
// time, so a run's latency samples need no full sort.
func percentile[T cmp.Ordered](xs []T, p float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	rank := int(math.Ceil(p*float64(len(xs)))) - 1
	rank = max(0, min(rank, len(xs)-1))
	lo, hi := 0, len(xs)-1
	seed := uint64(len(xs))
	for lo < hi {
		seed = mix(seed + 1)
		pivot := xs[lo+int(seed%uint64(hi-lo+1))]
		// Three-way partition: [lo,lt) < pivot, [lt,gt] == pivot, (gt,hi] > pivot.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch {
			case xs[i] < pivot:
				xs[lt], xs[i] = xs[i], xs[lt]
				lt++
				i++
			case xs[i] > pivot:
				xs[i], xs[gt] = xs[gt], xs[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case rank < lt:
			hi = lt - 1
		case rank > gt:
			lo = gt + 1
		default:
			return pivot
		}
	}
	return xs[rank]
}
