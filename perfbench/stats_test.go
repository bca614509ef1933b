package main

import (
	"math"
	"testing"
	"time"
)

func TestWindowStats(t *testing.T) {
	// 900 samples of 10 µs over 9 s, except bursts of 1000 µs filling
	// the fourth and the sixth to ninth seconds: the lower quartile over
	// windows ignores them, though they cover more than half of the phase.
	var xs []sample
	for i := 0; i < 900; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		v := 10.0
		if at >= 3*time.Second && at < 4*time.Second || at >= 5*time.Second && at < 9*time.Second {
			v = 1000
		}
		xs = append(xs, sample{at, v})
	}
	q, rate := windowStats(xs, 9*time.Second, 0.5, 0.9)
	if q[0] != 10 || q[1] != 10 {
		t.Fatalf("windowed quantiles %v, want [10 10]", q)
	}
	if math.Abs(rate-100) > 1e-9 {
		t.Fatalf("windowed rate %v, want 100", rate)
	}
	// Too few samples for more than one window: plain quantiles.
	q, _ = windowStats(xs[:150], 1500*time.Millisecond, 0.5)
	if q[0] != 10 {
		t.Fatalf("single-window median %v", q[0])
	}
}
