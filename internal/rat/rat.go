// Package rat implements exact rational arithmetic on 64-bit integers.
//
// The tiling framework only needs rational numbers at compile time — matrix
// inverses, Fourier–Motzkin combinations, Hermite normal forms — on matrices
// whose entries are small (loop bounds, dependence components, tile edge
// lengths). All run-time hot loops operate on precomputed integers. We
// therefore use an int64 numerator/denominator pair with explicit overflow
// checking rather than math/big: values stay small, operations stay cheap,
// and any overflow panics with an Overflow value instead of silently
// wrapping. Within the compiler's own sizes an overflow is a bug; a caller
// that takes sizes from outside (tiling.Analyze) recovers exactly that
// type into an error.
package rat

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Rat is an exact rational number. The zero value is 0.
//
// Invariants (maintained by all constructors and operations):
//   - Den > 0
//   - gcd(|Num|, Den) == 1
//   - 0 is represented as 0/1
type Rat struct {
	Num int64
	Den int64
}

// Overflow is the panic value of an operation whose result leaves int64;
// Op names the operation and its operands.
type Overflow struct{ Op string }

func (o Overflow) Error() string { return "rat: int64 overflow in " + o.Op }

// Zero and One are the additive and multiplicative identities.
var (
	Zero = Rat{0, 1}
	One  = Rat{1, 1}
)

// New returns the normalized rational num/den. It panics if den == 0.
func New(num, den int64) Rat {
	if den == 0 {
		panic("rat: zero denominator")
	}
	if den < 0 {
		num, den = checkedNeg(num), checkedNeg(den)
	}
	if num == 0 {
		return Rat{0, 1}
	}
	g := Gcd64(abs64(num), den)
	return Rat{num / g, den / g}
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{n, 1} }

// Parse parses strings of the form "3", "-3", "3/4", "-3/4".
func Parse(s string) (Rat, error) {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '/'); i >= 0 {
		num, err := strconv.ParseInt(strings.TrimSpace(s[:i]), 10, 64)
		if err != nil {
			return Zero, fmt.Errorf("rat: parse %q: %w", s, err)
		}
		den, err := strconv.ParseInt(strings.TrimSpace(s[i+1:]), 10, 64)
		if err != nil {
			return Zero, fmt.Errorf("rat: parse %q: %w", s, err)
		}
		if den == 0 {
			return Zero, fmt.Errorf("rat: parse %q: zero denominator", s)
		}
		return New(num, den), nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return Zero, fmt.Errorf("rat: parse %q: %w", s, err)
	}
	return FromInt(n), nil
}

// String renders the rational as "n" or "n/d".
func (r Rat) String() string {
	if r.Den == 1 || r.Num == 0 {
		return strconv.FormatInt(r.Num, 10)
	}
	return strconv.FormatInt(r.Num, 10) + "/" + strconv.FormatInt(r.Den, 10)
}

// norm renormalizes after an arithmetic operation.
func norm(num, den int64) Rat {
	return New(num, den)
}

// Add returns r + s.
func (r Rat) Add(s Rat) Rat {
	// r.Num/r.Den + s.Num/s.Den; use lcm denominator to delay overflow.
	g := Gcd64(r.Den, s.Den)
	rd, sd := r.Den/g, s.Den/g
	num := CheckedAdd(CheckedMul(r.Num, sd), CheckedMul(s.Num, rd))
	den := CheckedMul(rd, s.Den)
	return norm(num, den)
}

// Sub returns r - s.
func (r Rat) Sub(s Rat) Rat { return r.Add(s.Neg()) }

// Neg returns -r.
func (r Rat) Neg() Rat { return Rat{checkedNeg(r.Num), r.Den} }

// Mul returns r * s.
func (r Rat) Mul(s Rat) Rat {
	// Cross-cancel before multiplying to keep magnitudes small.
	g1 := Gcd64(abs64(r.Num), s.Den)
	g2 := Gcd64(abs64(s.Num), r.Den)
	num := CheckedMul(r.Num/g1, s.Num/g2)
	den := CheckedMul(r.Den/g2, s.Den/g1)
	return norm(num, den)
}

// Div returns r / s. It panics if s is zero.
func (r Rat) Div(s Rat) Rat {
	if s.Num == 0 {
		panic("rat: division by zero")
	}
	return r.Mul(s.Inv())
}

// Inv returns 1/r. It panics if r is zero.
func (r Rat) Inv() Rat {
	if r.Num == 0 {
		panic("rat: inverse of zero")
	}
	return New(r.Den, r.Num)
}

// MulInt returns r * n.
func (r Rat) MulInt(n int64) Rat { return r.Mul(FromInt(n)) }

// Cmp compares r and s, returning -1, 0, or +1.
func (r Rat) Cmp(s Rat) int {
	// r - s sign without building the difference is cheaper but subtler;
	// compile-time code can afford the subtraction.
	d := r.Sub(s)
	switch {
	case d.Num < 0:
		return -1
	case d.Num > 0:
		return 1
	default:
		return 0
	}
}

// Sign returns -1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	switch {
	case r.Num < 0:
		return -1
	case r.Num > 0:
		return 1
	default:
		return 0
	}
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.Num == 0 }

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.Den == 1 }

// Int returns the integer value of r; it panics unless r.IsInt().
func (r Rat) Int() int64 {
	if r.Den != 1 {
		panic(fmt.Sprintf("rat: %v is not an integer", r))
	}
	return r.Num
}

// Equal reports whether r == s exactly.
func (r Rat) Equal(s Rat) bool { return r.Num == s.Num && r.Den == s.Den }

// Gcd64 returns the non-negative greatest common divisor of |a| and |b|;
// Gcd64(0, 0) == 0.
func Gcd64(a, b int64) int64 {
	a, b = abs64(a), abs64(b)
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Lcm64 returns the least common multiple of |a| and |b|; zero if either is
// zero. Panics on overflow.
func Lcm64(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	a, b = abs64(a), abs64(b)
	return CheckedMul(a/Gcd64(a, b), b)
}

// ExtGcd returns (g, x, y) such that a*x + b*y == g == gcd(a, b), g ≥ 0.
func ExtGcd(a, b int64) (g, x, y int64) {
	oldR, r := a, b
	oldX, x := int64(1), int64(0)
	oldY, y := int64(0), int64(1)
	for r != 0 {
		q := oldR / r
		oldR, r = r, oldR-q*r
		oldX, x = x, oldX-q*x
		oldY, y = y, oldY-q*y
	}
	if oldR < 0 {
		oldR, oldX, oldY = -oldR, -oldX, -oldY
	}
	return oldR, oldX, oldY
}

// FloorDiv returns ⌊a/b⌋ for b != 0, rounding toward negative infinity.
func FloorDiv(a, b int64) int64 {
	if b == 0 {
		panic("rat: FloorDiv by zero")
	}
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// CeilDiv returns ⌈a/b⌉ for b != 0, rounding toward positive infinity.
func CeilDiv(a, b int64) int64 {
	if b == 0 {
		panic("rat: CeilDiv by zero")
	}
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

func abs64(a int64) int64 {
	if a == math.MinInt64 {
		panic(Overflow{"abs"})
	}
	if a < 0 {
		return -a
	}
	return a
}

func checkedNeg(a int64) int64 {
	if a == math.MinInt64 {
		panic(Overflow{"negation"})
	}
	return -a
}

// CheckedAdd returns a + b, panicking with an Overflow instead of
// wrapping. Exported with CheckedMul for integer fast paths that
// must fail as loudly as the rational arithmetic they replace. The panic
// lives in its own function so the check inlines.
func CheckedAdd(a, b int64) int64 {
	s := a + b
	if (a^s)&(b^s) < 0 { // both operands differ in sign from the sum
		addOverflow(a, b)
	}
	return s
}

func addOverflow(a, b int64) {
	panic(Overflow{fmt.Sprintf("%d + %d", a, b)})
}

// CheckedMul returns a · b, panicking on int64 overflow like CheckedAdd. The
// wide case lives in its own function so the common one inlines.
func CheckedMul(a, b int64) int64 {
	if int64(int32(a)) == a && int64(int32(b)) == b {
		return a * b // both within ±2³¹: cannot overflow, no division needed
	}
	return mulWide(a, b)
}

func mulWide(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a || (a == math.MinInt64 && b == -1) {
		panic(Overflow{fmt.Sprintf("%d * %d", a, b)})
	}
	return p
}
