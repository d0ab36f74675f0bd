package sched

import (
	"fmt"
	"math"
	"strconv"

	"setupsched/internal/num128"
)

// Rat is an exact rational number with 64-bit numerator and denominator.
//
// All makespans and schedule times in this module are represented as Rats.
// The algorithms of Deppert & Jansen (SPAA 2019) place load at fractions of
// a rational makespan guess T = p/q (T/4, T/2, ...), and the exact 3/2
// approximation guarantee depends on exact comparisons of such values, so
// floating point is not an option.
//
// Rats are always kept normalized (gcd(|num|, den) = 1, den >= 1).  The
// zero value is the number 0.  Arithmetic panics with ErrRatOverflow on
// int64 overflow; the documented instance magnitude limits enforced by
// Instance.Validate guarantee that overflow is unreachable for all values
// produced by this module's solvers.
type Rat struct {
	n, d int64 // d == 0 encodes the zero value (treated as 0/1)
}

// ErrRatOverflow is the panic value used when rational arithmetic would
// overflow an int64.
var ErrRatOverflow = fmt.Errorf("sched: rational arithmetic overflow (instance exceeds documented magnitude limits)")

// R returns the Rat with integer value n.
func R(n int64) Rat { return Rat{n, 1} }

// RatOf returns the normalized rational n/d.  It panics if d == 0.
func RatOf(n, d int64) Rat {
	if d == 0 {
		panic("sched: RatOf with zero denominator")
	}
	if d < 0 {
		if n == math.MinInt64 || d == math.MinInt64 {
			panic(ErrRatOverflow)
		}
		n, d = -n, -d
	}
	g := gcd64(abs64(n), d)
	if g > 1 {
		n /= g
		d /= g
	}
	return Rat{n, d}
}

func abs64(x int64) int64 {
	if x < 0 {
		if x == math.MinInt64 {
			panic(ErrRatOverflow)
		}
		return -x
	}
	return x
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func addChecked(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		panic(ErrRatOverflow)
	}
	return s
}

func mulChecked(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a || (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		panic(ErrRatOverflow)
	}
	return p
}

// Num returns the normalized numerator.
func (r Rat) Num() int64 { return r.n }

// Den returns the normalized denominator (always >= 1).
func (r Rat) Den() int64 {
	if r.d == 0 {
		return 1
	}
	return r.d
}

// Sign returns -1, 0 or 1 according to the sign of r.
func (r Rat) Sign() int {
	switch {
	case r.n < 0:
		return -1
	case r.n > 0:
		return 1
	}
	return 0
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.n == 0 }

// Neg returns -r.
func (r Rat) Neg() Rat {
	if r.n == math.MinInt64 {
		panic(ErrRatOverflow)
	}
	return Rat{-r.n, r.Den()}
}

// Add returns r + o.
func (r Rat) Add(o Rat) Rat {
	rd, od := r.Den(), o.Den()
	if rd == od {
		return RatOf(addChecked(r.n, o.n), rd)
	}
	g := gcd64(rd, od)
	// lcm = rd/g * od
	n := addChecked(mulChecked(r.n, od/g), mulChecked(o.n, rd/g))
	d := mulChecked(rd/g, od)
	return RatOf(n, d)
}

// Sub returns r - o.
func (r Rat) Sub(o Rat) Rat { return r.Add(o.Neg()) }

// AddInt returns r + x.
func (r Rat) AddInt(x int64) Rat {
	d := r.Den()
	return Rat{addChecked(r.n, mulChecked(x, d)), d}
}

// SubInt returns r - x.
func (r Rat) SubInt(x int64) Rat {
	if x == math.MinInt64 {
		panic(ErrRatOverflow)
	}
	return r.AddInt(-x)
}

// MulInt returns r * x.
func (r Rat) MulInt(x int64) Rat {
	d := r.Den()
	neg := false
	if x < 0 {
		x = abs64(x)
		neg = true
	}
	g := gcd64(x, d)
	n := mulChecked(r.n, x/g)
	if neg {
		n = -n
	}
	return Rat{n, d / g}
}

// DivInt returns r / x for x != 0.
func (r Rat) DivInt(x int64) Rat {
	if x == 0 {
		panic("sched: Rat.DivInt by zero")
	}
	neg := false
	if x < 0 {
		x = abs64(x)
		neg = true
	}
	nn := r.n
	g := gcd64(abs64(nn), x)
	nn /= g
	if neg {
		nn = -nn
	}
	return Rat{nn, mulChecked(r.Den(), x/g)}
}

// Mul returns r * o.
func (r Rat) Mul(o Rat) Rat {
	// Cross-reduce before multiplying to limit intermediate magnitude.
	g1 := gcd64(abs64(r.n), o.Den())
	g2 := gcd64(abs64(o.n), r.Den())
	n := mulChecked(r.n/g1, o.n/g2)
	d := mulChecked(r.Den()/g2, o.Den()/g1)
	return Rat{n, d}
}

// Half returns r / 2.
func (r Rat) Half() Rat { return r.DivInt(2) }

// Quarter returns r / 4.
func (r Rat) Quarter() Rat { return r.DivInt(4) }

// Cmp compares r and o, returning -1, 0, or 1.
func (r Rat) Cmp(o Rat) int {
	return num128.CmpProd(r.n, o.Den(), o.n, r.Den())
}

// Less reports r < o.
func (r Rat) Less(o Rat) bool { return r.Cmp(o) < 0 }

// Leq reports r <= o.
func (r Rat) Leq(o Rat) bool { return r.Cmp(o) <= 0 }

// Equal reports r == o.
func (r Rat) Equal(o Rat) bool { return r.n == o.n && r.Den() == o.Den() }

// CmpInt compares r with the integer x.
func (r Rat) CmpInt(x int64) int {
	return num128.CmpProd(r.n, 1, x, r.Den())
}

// Floor returns the largest integer <= r.
func (r Rat) Floor() int64 {
	d := r.Den()
	q := r.n / d
	if r.n%d != 0 && r.n < 0 {
		q--
	}
	return q
}

// Ceil returns the smallest integer >= r.
func (r Rat) Ceil() int64 {
	d := r.Den()
	q := r.n / d
	if r.n%d != 0 && r.n > 0 {
		q++
	}
	return q
}

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.Den() == 1 }

// Float64 returns a float64 approximation of r, for reporting only.
func (r Rat) Float64() float64 { return float64(r.n) / float64(r.Den()) }

// String formats r as "p" or "p/q".
func (r Rat) String() string {
	var buf [40]byte
	return string(r.Append(buf[:0]))
}

// Append appends the String form of r to b: the serving layer writes
// schedules of thousands of rationals without a string per value.
func (r Rat) Append(b []byte) []byte {
	b = strconv.AppendInt(b, r.n, 10)
	if d := r.Den(); d != 1 {
		b = strconv.AppendInt(append(b, '/'), d, 10)
	}
	return b
}

// MaxRat returns the larger of a and b.
func MaxRat(a, b Rat) Rat {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

// MinRat returns the smaller of a and b.
func MinRat(a, b Rat) Rat {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

// CeilDivInt returns ceil(x / t) for x >= 0 and t > 0.
// This is the exact machine-count primitive: e.g. beta_i = ceil(2 P_i / T).
func CeilDivInt(x int64, t Rat) int64 {
	if x < 0 || t.Sign() <= 0 {
		panic("sched: CeilDivInt domain error")
	}
	v, ok := num128.CeilDiv(x, t.Den(), t.n)
	if !ok {
		panic(ErrRatOverflow)
	}
	return v
}

// FloorDivInt returns floor(x / t) for x >= 0 and t > 0.
func FloorDivInt(x int64, t Rat) int64 {
	if x < 0 || t.Sign() <= 0 {
		panic("sched: FloorDivInt domain error")
	}
	v, ok := num128.FloorDiv(x, t.Den(), t.n)
	if !ok {
		panic(ErrRatOverflow)
	}
	return v
}

// Mid returns a value strictly between a and b (a < b required),
// preferring small denominators: it returns the integer midpoint when the
// open interval (a, b) contains an integer, and otherwise snaps the exact
// midpoint to the coarsest power-of-two lattice that still lies inside.
func Mid(a, b Rat) Rat {
	if a.Cmp(b) >= 0 {
		panic("sched: Mid requires a < b")
	}
	// Try integers first: smallest integer > a.
	lo := a.Floor() + 1
	if R(lo).Less(b) && a.Less(R(lo)) {
		hi := b.Ceil() - 1
		m := lo + (hi-lo)/2
		if a.Less(R(m)) && R(m).Less(b) {
			return R(m)
		}
		return R(lo)
	}
	// Exact midpoint with growing denominator; snap to power-of-two grid.
	for den := int64(2); den <= 1<<40; den *= 2 {
		// smallest multiple of 1/den strictly greater than a
		k := a.MulInt(den).Floor() + 1
		cand := RatOf(k, den)
		if a.Less(cand) && cand.Less(b) {
			return cand
		}
	}
	// Fall back to the exact midpoint.
	return a.Add(b).Half()
}
