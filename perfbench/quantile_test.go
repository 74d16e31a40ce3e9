package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for i := 1000; i >= 1; i-- { // 1..1000 µs, unsorted on purpose
		s = append(s, time.Duration(i)*time.Microsecond)
	}
	s.sort()
	for _, c := range []struct {
		p    float64
		want time.Duration
		ok   bool
	}{
		{0.50, 500 * time.Microsecond, true},
		{0.90, 900 * time.Microsecond, true},
		{0.99, 990 * time.Microsecond, true},   // 10 samples above rank 990
		{0.999, 999 * time.Microsecond, false}, // only 1 above
		{0.001, 1 * time.Microsecond, true},
		{0.0001, 1 * time.Microsecond, true},    // rank clamps to the first sample
		{0.9905, 991 * time.Microsecond, false}, // 9 above
	} {
		got, ok := s.percentile(c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("p%v = %v ok=%v, want %v ok=%v", c.p*100, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNotBucketed(t *testing.T) {
	// Doubling buckets would report both of these as the same bound.
	s := samples{1100 * time.Microsecond, 1900 * time.Microsecond}
	for i := 0; i < 20; i++ {
		s = append(s, 5*time.Millisecond)
	}
	s.sort()
	if v, _ := s.percentile(0.01); v != 1100*time.Microsecond {
		t.Errorf("p1 = %v, want 1.1ms", v)
	}
	if v, _ := s.percentile(0.06); v != 1900*time.Microsecond {
		t.Errorf("p6 = %v, want 1.9ms", v)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if _, ok := samples(nil).percentile(0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}
