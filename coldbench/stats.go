package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles is the ladder wall_s_tail picks from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest ladder percentile of xs that has at least ten
// samples beyond it, its nearest-rank value, and the sample count; ok is
// false when even the lowest rung has fewer than ten beyond it.
func tail(xs []float64) (pct, value float64, n int, ok bool) {
	n = len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n))) // nearest rank, 1-based
		if rank >= 1 && n-rank >= 10 {
			return p, s[rank-1], n, true
		}
	}
	return 0, 0, n, false
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
