package main

import (
	"fmt"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above a reported tail value.
const tailBeyond = 10

// tail returns the highest order statistic that has at least ten samples
// above it, and a label naming the percentile it sits at. Below twenty
// samples that statistic would sit under the median, so it returns the
// maximum instead and says so.
func tail(xs []float64) (float64, string) {
	n := len(xs)
	if n == 0 {
		return 0, "none"
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n < 2*tailBeyond {
		return s[n-1], fmt.Sprintf("max of %d", n)
	}
	i := n - 1 - tailBeyond
	return s[i], fmt.Sprintf("p%.1f of %d (%d above)", 100*float64(i+1)/float64(n), n, tailBeyond)
}

// sum adds xs up.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
