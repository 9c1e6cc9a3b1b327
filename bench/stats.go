package main

import (
	"math"
	"sort"
)

// series is one set of timing samples in milliseconds.
type series []float64

// sorted returns an ascending copy, leaving the receiver's order (the
// arrival order) intact.
func (s series) sorted() series {
	out := append(series(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile of an ascending series:
// the smallest sample with at least p percent of the samples at or
// below it. An empty series reads 0.
func (s series) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func (s series) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// beyond is the number of samples strictly above the nearest-rank
// position of percentile p among n samples.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// supported reports whether n samples carry percentile p under the
// ten-beyond rule: a tail percentile is reported only when at least
// ten samples lie beyond it.
func supported(n int, p float64) bool { return beyond(n, p) >= 10 }

// median of an unsorted slice; 0 when empty.
func median(v []float64) float64 { return series(v).sorted().percentile(50) }
