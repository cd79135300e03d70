package geo

import (
	"math"
	"testing"
)

// FuzzRectInvariants drives the rectangle algebra with arbitrary coordinate
// quadruples; go test runs the seed corpus, `go test -fuzz=FuzzRect` explores.
func FuzzRectInvariants(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 2.0, 2.0)
	f.Add(-3.0, 4.0, 7.5, 8.25, 1.0, 1.0, 1.0, 1.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	negZero := math.Copysign(0, -1)
	f.Add(negZero, 0.0, 1.0, negZero, 0.0, negZero, negZero, 1.0)
	f.Add(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 2.0, 1.0)
	f.Add(-1e300, -1e300, 1e300, 1e300, -5e-324, 5e-324, 1e308, 1e308)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		// On any finite coordinates, normalized or not, the builtin
		// min/max agree bit for bit with the math.Min/math.Max formulation.
		checkMathMinMax(t, Rect{ax, ay, bx, by}, Rect{cx, cy, dx, dy})
		checkMathMinMax(t, NewRect(ax, ay, bx, by), NewRect(cx, cy, dx, dy))
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.Abs(v) > 1e9 {
				t.Skip()
			}
		}
		r := NewRect(ax, ay, bx, by)
		s := NewRect(cx, cy, dx, dy)
		if !r.Valid() || !s.Valid() {
			t.Fatalf("NewRect produced invalid rect: %v %v", r, s)
		}
		inter := r.IntersectionArea(s)
		if inter < 0 {
			t.Fatalf("negative intersection %v", inter)
		}
		if inter > r.Area()*(1+1e-9)+1e-9 || inter > s.Area()*(1+1e-9)+1e-9 {
			t.Fatalf("intersection %v exceeds areas %v/%v", inter, r.Area(), s.Area())
		}
		j := Jaccard(r, s)
		if j < 0 || j > 1+1e-9 || math.IsNaN(j) {
			t.Fatalf("jaccard out of range: %v", j)
		}
		if j != Jaccard(s, r) {
			t.Fatalf("jaccard asymmetric")
		}
		if d := Dice(r, s); d < j-1e-12 {
			t.Fatalf("dice %v below jaccard %v", d, j)
		}
		ext := r.Extend(s)
		if !ext.Contains(r) || !ext.Contains(s) {
			t.Fatalf("extend does not contain inputs")
		}
	})
}

// FuzzUnionArea cross-checks RectSet.Area against inclusion-exclusion on
// two rectangles, where the closed form is available.
func FuzzUnionArea(f *testing.F) {
	f.Add(0.0, 0.0, 4.0, 4.0, 2.0, 2.0, 6.0, 6.0)
	f.Add(0.0, 0.0, 1.0, 1.0, 5.0, 5.0, 6.0, 6.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		r := NewRect(ax, ay, bx, by)
		s := NewRect(cx, cy, dx, dy)
		got := RectSet{r, s}.Area()
		want := r.Area() + s.Area() - r.IntersectionArea(s)
		tol := 1e-9 * (1 + math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Fatalf("union sweep %v != inclusion-exclusion %v for %v, %v", got, want, r, s)
		}
	})
}
