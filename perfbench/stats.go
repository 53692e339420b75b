package main

import (
	"fmt"
	"sort"
)

// tailMinBeyond is the number of samples that must lie beyond the reported
// tail percentile: op_cpu_tail_ms is the highest percentile with at least this
// many samples above it in the run.
const tailMinBeyond = 10

// median returns the median of xs (the mean of the two middle values for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest-ranked sample that still has at least minBeyond
// samples strictly beyond it in rank, and the percentile that sample sits
// at (100 * rank / count, with rank counted from 1). It fails when the run
// holds too few samples to have such a percentile.
func tail(xs []float64, minBeyond int) (value, pct float64, err error) {
	if len(xs) <= minBeyond {
		return 0, 0, fmt.Errorf("tail: %d samples, need more than %d", len(xs), minBeyond)
	}
	s := sortedCopy(xs)
	k := len(s) - 1 - minBeyond
	return s[k], 100 * float64(k+1) / float64(len(s)), nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never enters).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
