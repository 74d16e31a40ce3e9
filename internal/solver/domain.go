// Package solver implements a finite-domain constraint solver over
// integer and enumeration variables — the role played by the JaCoP
// library in the paper's prototype. It decides satisfiability of the
// quantifier-free formulas produced by rule extraction and, when
// satisfiable, returns a witness model (the "situation" under which two
// rules interfere).
package solver

import (
	"fmt"
	"strings"
)

// Interval is an inclusive integer range.
type Interval struct {
	Lo, Hi int64
}

// Domain is a set of integers represented as sorted, disjoint,
// non-adjacent intervals. The zero value is the empty domain.
type Domain struct {
	ivs []Interval
}

// NewDomain returns the domain [lo, hi].
func NewDomain(lo, hi int64) Domain {
	if lo > hi {
		return Domain{}
	}
	return Domain{ivs: []Interval{{lo, hi}}}
}

// Empty reports whether the domain has no values.
func (d Domain) Empty() bool { return len(d.ivs) == 0 }

// Min returns the smallest value. Panics on an empty domain.
func (d Domain) Min() int64 { return d.ivs[0].Lo }

// Max returns the largest value. Panics on an empty domain.
func (d Domain) Max() int64 { return d.ivs[len(d.ivs)-1].Hi }

// Size returns the number of values (saturating at MaxInt64).
func (d Domain) Size() int64 {
	var n int64
	for _, iv := range d.ivs {
		n += iv.Hi - iv.Lo + 1
		if n < 0 {
			return 1<<63 - 1
		}
	}
	return n
}

// Singleton reports whether the domain has exactly one value.
func (d Domain) Singleton() bool {
	return len(d.ivs) == 1 && d.ivs[0].Lo == d.ivs[0].Hi
}

// Contains reports whether v is in the domain.
func (d Domain) Contains(v int64) bool {
	for _, iv := range d.ivs {
		if v < iv.Lo {
			return false
		}
		if v <= iv.Hi {
			return true
		}
	}
	return false
}

// ClampMin returns the domain restricted to values >= lo.
func (d Domain) ClampMin(lo int64) Domain {
	// No-op fast path: propagation re-applies the same bounds until
	// fixpoint, so most clamps change nothing — return d without
	// allocating a new interval slice.
	if d.Empty() || lo <= d.Min() {
		return d
	}
	var out []Interval
	for _, iv := range d.ivs {
		if iv.Hi < lo {
			continue
		}
		if iv.Lo < lo {
			iv.Lo = lo
		}
		out = append(out, iv)
	}
	return Domain{ivs: out}
}

// ClampMax returns the domain restricted to values <= hi.
func (d Domain) ClampMax(hi int64) Domain {
	if d.Empty() || hi >= d.Max() {
		return d // no-op fast path (see ClampMin)
	}
	var out []Interval
	for _, iv := range d.ivs {
		if iv.Lo > hi {
			break
		}
		if iv.Hi > hi {
			iv.Hi = hi
		}
		out = append(out, iv)
	}
	return Domain{ivs: out}
}

// Remove returns the domain with value v removed.
func (d Domain) Remove(v int64) Domain {
	if !d.Contains(v) {
		return d // no-op fast path (see ClampMin)
	}
	var out []Interval
	for _, iv := range d.ivs {
		switch {
		case v < iv.Lo || v > iv.Hi:
			out = append(out, iv)
		case iv.Lo == iv.Hi: // == v: drop
		case v == iv.Lo:
			out = append(out, Interval{iv.Lo + 1, iv.Hi})
		case v == iv.Hi:
			out = append(out, Interval{iv.Lo, iv.Hi - 1})
		default:
			out = append(out, Interval{iv.Lo, v - 1}, Interval{v + 1, iv.Hi})
		}
	}
	return Domain{ivs: out}
}

// Only returns the domain intersected with {v}.
func (d Domain) Only(v int64) Domain {
	if d.Contains(v) {
		return singleton(v)
	}
	return Domain{}
}

// smallSingletons backs the singleton domains of small non-negative
// values — every enum value index, and most pinned integers — so pinning
// a variable allocates nothing. Domains never write their intervals, and
// each one is sliced with its capacity capped, so sharing is safe.
var smallSingletons = func() (t [64]Interval) {
	for i := range t {
		t[i] = Interval{int64(i), int64(i)}
	}
	return t
}()

// singleton returns the domain {v}.
func singleton(v int64) Domain {
	if v >= 0 && v < int64(len(smallSingletons)) {
		return Domain{ivs: smallSingletons[v : v+1 : v+1]}
	}
	return NewDomain(v, v)
}

// Intersect returns d ∩ o.
func (d Domain) Intersect(o Domain) Domain {
	// Containment fast path: a single interval of o spanning all of d
	// leaves d unchanged (the common case during propagation fixpoints).
	if d.Empty() {
		return d
	}
	if len(o.ivs) == 1 && o.Min() <= d.Min() && o.Max() >= d.Max() {
		return d
	}
	var out []Interval
	i, j := 0, 0
	for i < len(d.ivs) && j < len(o.ivs) {
		a, b := d.ivs[i], o.ivs[j]
		lo := max64(a.Lo, b.Lo)
		hi := min64(a.Hi, b.Hi)
		if lo <= hi {
			out = append(out, Interval{lo, hi})
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return Domain{ivs: out}
}

// SplitLow returns the lower half of a domain bisection (and the upper
// half). The split point is the midpoint of the value range.
func (d Domain) Split() (lo, hi Domain) {
	mid := d.Min() + (d.Max()-d.Min())/2
	return d.ClampMax(mid), d.ClampMin(mid + 1)
}

// String renders the domain compactly.
func (d Domain) String() string {
	if d.Empty() {
		return "∅"
	}
	var parts []string
	for _, iv := range d.ivs {
		if iv.Lo == iv.Hi {
			parts = append(parts, fmt.Sprintf("%d", iv.Lo))
		} else {
			parts = append(parts, fmt.Sprintf("%d..%d", iv.Lo, iv.Hi))
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
