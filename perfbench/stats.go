package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by nearest rank. It
// sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqm is the interquartile mean of xs: the mean of its middle half.
// Most end-to-end figures are the iqm of per-slice medians: unlike a
// median it moves smoothly when the host flips between a fast and a slow
// state during the run, and unlike a mean it ignores the slices a burst
// of interference ruined.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// durQuantileUs is quantile over nanosecond samples, in microseconds.
func durQuantileUs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / 1e3
}

// usage is a process's CPU time and context switches at one instant.
type usage struct {
	userUs, sysUs float64
	ctxsw         int64
}

func (u usage) cpuUs() float64 { return u.userUs + u.sysUs }

func (u usage) sub(v usage) usage {
	return usage{u.userUs - v.userUs, u.sysUs - v.sysUs, u.ctxsw - v.ctxsw}
}

func (u usage) add(v usage) usage {
	return usage{u.userUs + v.userUs, u.sysUs + v.sysUs, u.ctxsw + v.ctxsw}
}

func clientUsage() usage {
	u, s, c, _ := selfUsage()
	return usage{u, s, c}
}

func (r report) usage() usage { return usage{r.UserUs, r.SysUs, r.Ctxsw} }

// per divides, reading 0 for an empty denominator.
func per(x float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
