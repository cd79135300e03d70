package gridtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sealdb/seal/internal/geo"
)

func newTree(t *testing.T, maxLevel int) *Tree {
	t.Helper()
	tr, err := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 128, MaxY: 128}, maxLevel)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNodeIDPacking(t *testing.T) {
	for _, c := range []struct{ level, ix, iy int }{
		{0, 0, 0}, {1, 1, 0}, {5, 31, 17}, {14, 16383, 16383},
	} {
		n := MakeNodeID(c.level, c.ix, c.iy)
		if n.Level() != c.level || n.IX() != c.ix || n.IY() != c.iy {
			t.Errorf("roundtrip (%d,%d,%d) = (%d,%d,%d)", c.level, c.ix, c.iy, n.Level(), n.IX(), n.IY())
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, -1); err == nil {
		t.Error("negative maxLevel should fail")
	}
	if _, err := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, MaxLevelLimit+1); err == nil {
		t.Error("too-deep maxLevel should fail")
	}
	if _, err := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 0, MaxY: 1}, 3); err == nil {
		t.Error("degenerate space should fail")
	}
}

func TestRootAndChildrenGeometry(t *testing.T) {
	tr := newTree(t, 3)
	root := tr.Root()
	if got := tr.Rect(root); got != tr.Space {
		t.Fatalf("root rect = %v, want %v", got, tr.Space)
	}
	kids := tr.Children(root)
	var areaSum float64
	for _, k := range kids {
		r := tr.Rect(k)
		if r.Width() != 64 || r.Height() != 64 {
			t.Errorf("child %v rect %v, want 64x64", k, r)
		}
		areaSum += r.Area()
		if !tr.Space.Contains(r) {
			t.Errorf("child %v outside space", k)
		}
	}
	if areaSum != tr.Space.Area() {
		t.Errorf("children areas sum %v, want %v", areaSum, tr.Space.Area())
	}
	// Children are pairwise disjoint in area.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if tr.Rect(kids[i]).IntersectionArea(tr.Rect(kids[j])) != 0 {
				t.Errorf("children %v and %v overlap", kids[i], kids[j])
			}
		}
	}
}

func TestChildrenOfLeafPanics(t *testing.T) {
	tr := newTree(t, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Children of leaf should panic")
		}
	}()
	tr.Children(tr.Root())
}

// TestLevelPartition: a node's four children tile it, so every region's
// intersection area with the node equals the sum over the children.
func TestLevelPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 256, MaxY: 256}, 4)
		if err != nil {
			return false
		}
		n := MakeNodeID(2, rng.Intn(4), rng.Intn(4))
		for i := 0; i < 5; i++ {
			x, y := rng.Float64()*240, rng.Float64()*240
			o := geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*16 + 0.5, MaxY: y + rng.Float64()*16 + 0.5}
			var childArea float64
			for _, c := range tr.Children(n) {
				childArea += tr.Rect(c).IntersectionArea(o)
			}
			if math.Abs(tr.Rect(n).IntersectionArea(o)-childArea) >= 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
