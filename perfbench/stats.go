package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// lowerQuartile is the figure of repeated timings reported where bursts
// of outside load could cover half of the repeats (see windowStats).
func lowerQuartile(xs []float64) float64 { return quantile(xs, 0.25) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// sample is one latency, stamped with when it completed.
type sample struct {
	at time.Duration // since the start of the timed phase
	us float64
}

// samples collects latencies from several goroutines.
type samples struct {
	mu sync.Mutex
	xs []sample
}

func (s *samples) add(at time.Duration, v float64) {
	s.mu.Lock()
	s.xs = append(s.xs, sample{at, v})
	s.mu.Unlock()
}

func (s *samples) values() []sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sample(nil), s.xs...)
}

const (
	maxWindows       = 9
	samplesPerWindow = 100 // so that a window's p90 has ten samples beyond it
)

// windowStats splits a phase of the given length into equal time
// windows — as many as maxWindows, with samplesPerWindow samples each on
// average — and returns, for each quantile asked for, its lower quartile
// over the windows, and the median rate over the windows. On a shared
// host another tenant's bursts can take the CPU for seconds at a time,
// and in an open loop the queue they build inflates every latency behind
// them; the lower quartile reports the windows least disturbed, as long
// as bursts cover fewer than three quarters of the phase. A change to
// the program itself moves every window.
func windowStats(xs []sample, length time.Duration, qs ...float64) (quantiles []float64, rate float64) {
	n := min(maxWindows, max(1, len(xs)/samplesPerWindow))
	win := make([][]float64, n)
	for _, x := range xs {
		i := min(n-1, max(0, int(int64(n)*int64(x.at)/int64(length))))
		win[i] = append(win[i], x.us)
	}
	var per []float64
	for _, q := range qs {
		per = per[:0]
		for _, w := range win {
			if len(w) > 0 {
				per = append(per, quantile(w, q))
			}
		}
		quantiles = append(quantiles, lowerQuartile(per))
	}
	per = per[:0]
	for _, w := range win {
		per = append(per, float64(len(w))/(length.Seconds()/float64(n)))
	}
	return quantiles, median(per)
}
