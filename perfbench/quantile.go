package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie above a percentile before it is
// reported: a p99 needs at least 1000 samples.
const minTail = 10

// samples holds raw per-operation latencies; percentiles come from the
// sorted samples themselves, never from histogram buckets.
type samples []time.Duration

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of s,
// which must be sorted: the smallest sample with at least p·n samples at
// or below it. ok is false when fewer than minTail samples lie above that
// rank, so the value would rest on too little tail.
func (s samples) percentile(p float64) (v time.Duration, ok bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return s[rank-1], false
	}
	return s[rank-1], true
}

func (s samples) sort() { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

// describe renders "n=… p50=… p99=…" for the human-readable table,
// marking a percentile without enough tail samples.
func (s samples) describe() string {
	out := fmt.Sprintf("n=%-7d mean=%8.3fms", len(s), ms(s.mean()))
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p99.9", 0.999}} {
		if v, ok := s.percentile(p.q); ok {
			out += fmt.Sprintf(" %s=%8.3fms", p.name, ms(v))
		} else {
			out += fmt.Sprintf(" %s=%10s", p.name, "(<10 above)")
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
