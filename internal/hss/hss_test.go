package hss

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/gridtree"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/paperdata"
)

func newTree(t *testing.T, space geo.Rect, maxLevel int) *gridtree.Tree {
	t.Helper()
	tr, err := gridtree.New(space, maxLevel)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSelectBudgetOne(t *testing.T) {
	tr := newTree(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 4)
	rects := []geo.Rect{{MinX: 1, MinY: 1, MaxX: 9, MaxY: 9}}
	grids, err := Select(tr, rects, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Splitting a node with a single non-empty child does not increase the
	// grid count, so the greedy may legally refine below the root as long as
	// the one selected grid still covers the region.
	if len(grids) != 1 {
		t.Fatalf("budget 1 should select exactly one grid, got %v", grids)
	}
	if grids[0].Count != 1 {
		t.Fatalf("grid count = %d, want 1", grids[0].Count)
	}
	cell := tr.Rect(grids[0].Node)
	if !cell.Contains(rects[0]) {
		t.Fatalf("selected grid %v (%v) must cover the region %v", grids[0].Node, cell, rects[0])
	}
}

func TestSelectInvalidBudget(t *testing.T) {
	tr := newTree(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 2)
	if _, err := Select(tr, nil, 0); err == nil {
		t.Fatal("budget 0 should error")
	}
}

func TestSelectNoRegions(t *testing.T) {
	tr := newTree(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 2)
	grids, err := Select(tr, []geo.Rect{{MinX: 500, MinY: 500, MaxX: 600, MaxY: 600}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 0 {
		t.Fatalf("disjoint regions should select nothing, got %v", grids)
	}
}

// TestSelectSplitsHotCorner: a tight cluster in one corner should drive the
// greedy to refine that corner rather than the empty remainder.
func TestSelectSplitsHotCorner(t *testing.T) {
	tr := newTree(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 128, MaxY: 128}, 5)
	var rects []geo.Rect
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		x, y := rng.Float64()*12, rng.Float64()*12
		rects = append(rects, geo.Rect{MinX: x, MinY: y, MaxX: x + 3, MaxY: y + 3})
	}
	grids, err := Select(tr, rects, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) == 0 || len(grids) > 16 {
		t.Fatalf("selected %d grids, want 1..16", len(grids))
	}
	deepest := 0
	for _, g := range grids {
		if g.Node.Level() > deepest {
			deepest = g.Node.Level()
		}
	}
	if deepest < 2 {
		t.Fatalf("hot corner should be refined below level 2, deepest = %d", deepest)
	}
}

// coverage verifies the two structural invariants of a selection: grids are
// pairwise disjoint, and together they cover every region's in-space area.
func checkCoverage(t *testing.T, tr *gridtree.Tree, rects []geo.Rect, grids []Grid) {
	t.Helper()
	for i := 0; i < len(grids); i++ {
		ri := tr.Rect(grids[i].Node)
		for j := i + 1; j < len(grids); j++ {
			if ri.IntersectionArea(tr.Rect(grids[j].Node)) > 0 {
				t.Fatalf("grids %v and %v overlap", grids[i].Node, grids[j].Node)
			}
		}
	}
	for k, r := range rects {
		want := r.IntersectionArea(tr.Space)
		var got float64
		for _, g := range grids {
			got += tr.Rect(g.Node).IntersectionArea(r)
		}
		if math.Abs(got-want) > 1e-6*math.Max(want, 1) {
			t.Fatalf("region %d covered area %v, want %v", k, got, want)
		}
	}
}

func TestSelectCoverageOnPaperData(t *testing.T) {
	tr := newTree(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 120, MaxY: 120}, 4)
	for _, mt := range []int{1, 2, 4, 8, 16, 64} {
		grids, err := Select(tr, paperdata.Regions, mt)
		if err != nil {
			t.Fatal(err)
		}
		if len(grids) > mt {
			t.Fatalf("mt=%d: selected %d grids", mt, len(grids))
		}
		checkCoverage(t, tr, paperdata.Regions, grids)
		// Counts are consistent: each grid intersects exactly Count regions.
		for _, g := range grids {
			n := 0
			for _, r := range paperdata.Regions {
				if tr.Rect(g.Node).IntersectionArea(r) > 0 {
					n++
				}
			}
			if n != g.Count {
				t.Fatalf("grid %v count %d, recomputed %d", g.Node, g.Count, n)
			}
		}
	}
}

// TestSelectProperties: budget respected, disjointness and coverage hold for
// random region sets.
func TestSelectProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		space := geo.Rect{MinX: 0, MinY: 0, MaxX: 512, MaxY: 512}
		tr, err := gridtree.New(space, 5)
		if err != nil {
			return false
		}
		n := 1 + rng.Intn(20)
		rects := make([]geo.Rect, 0, n)
		for i := 0; i < n; i++ {
			x, y := rng.Float64()*500, rng.Float64()*500
			rects = append(rects, geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*60 + 0.1, MaxY: y + rng.Float64()*60 + 0.1})
		}
		mt := 1 + rng.Intn(32)
		grids, err := Select(tr, rects, mt)
		if err != nil || len(grids) > mt || len(grids) == 0 {
			return false
		}
		// Disjointness.
		for i := 0; i < len(grids); i++ {
			for j := i + 1; j < len(grids); j++ {
				if tr.Rect(grids[i].Node).IntersectionArea(tr.Rect(grids[j].Node)) > 0 {
					return false
				}
			}
		}
		// Coverage of every region.
		for _, r := range rects {
			want := r.IntersectionArea(space)
			var got float64
			for _, g := range grids {
				got += tr.Rect(g.Node).IntersectionArea(r)
			}
			if math.Abs(got-want) > 1e-6*math.Max(want, 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestLargerBudgetNeverCoarser: increasing the budget must not reduce the
// total number of selected grids.
func TestLargerBudgetNeverCoarser(t *testing.T) {
	tr := newTree(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 120, MaxY: 120}, 4)
	prev := 0
	for _, mt := range []int{1, 2, 4, 8, 16, 32} {
		grids, err := Select(tr, paperdata.Regions, mt)
		if err != nil {
			t.Fatal(err)
		}
		if len(grids) < prev {
			t.Fatalf("mt=%d produced %d grids, fewer than previous %d", mt, len(grids), prev)
		}
		prev = len(grids)
	}
}

// The reference below is Algorithm 2 written out literally: every dequeued
// node rescans its region subset once per child, and every enqueued node
// recomputes its own Î and its children's Î from its subset. Select must
// produce exactly the same grids in the same order.

// expectedListSize returns Î(g) = Σ_o |g ∩ o.R| / |g| over the given object
// regions — the expected number of postings a uniformly-placed query would
// retrieve from g's inverted list (Section 5.2).
func expectedListSize(t *gridtree.Tree, n gridtree.NodeID, rects []geo.Rect) float64 {
	r := t.Rect(n)
	area := r.Area()
	if area <= 0 {
		return 0
	}
	var sum float64
	for _, o := range rects {
		sum += r.IntersectionArea(o)
	}
	return sum / area
}

// nodeError returns Error(n) = Σ_{child c} (Î(n) − Î(c))², the approximation
// HSS-Greedy uses in place of the finest-grid error of Definition 6. Leaves
// have error 0 by definition.
func nodeError(t *gridtree.Tree, n gridtree.NodeID, rects []geo.Rect) float64 {
	if t.IsLeaf(n) {
		return 0
	}
	parent := expectedListSize(t, n, rects)
	var e float64
	for _, c := range t.Children(n) {
		d := parent - expectedListSize(t, c, rects)
		e += d * d
	}
	return e
}

// filterIntersecting appends to out the indices (into rects) of regions
// sharing positive area with node n, restricted to subset when it is
// non-nil, and returns it.
func filterIntersecting(t *gridtree.Tree, n gridtree.NodeID, rects []geo.Rect, subset []int, out []int) []int {
	r := t.Rect(n)
	if subset == nil {
		for i, o := range rects {
			if r.IntersectionArea(o) > 0 {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range subset {
		if r.IntersectionArea(rects[i]) > 0 {
			out = append(out, i)
		}
	}
	return out
}

type refItem struct {
	node   gridtree.NodeID
	subset []int
	err    float64
}

type refQueue []refItem

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].err != q[j].err {
		return q[i].err > q[j].err
	}
	return q[i].node < q[j].node
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// selectRef is the reference HSS-Greedy.
func selectRef(tree *gridtree.Tree, rects []geo.Rect, mt int) []Grid {
	rootSubset := filterIntersecting(tree, tree.Root(), rects, nil, nil)
	if len(rootSubset) == 0 {
		return nil
	}
	subsetRects := func(subset []int) []geo.Rect {
		rs := make([]geo.Rect, len(subset))
		for i, idx := range subset {
			rs[i] = rects[idx]
		}
		return rs
	}
	q := &refQueue{}
	heap.Push(q, refItem{
		node:   tree.Root(),
		subset: rootSubset,
		err:    nodeError(tree, tree.Root(), subsetRects(rootSubset)),
	})
	var out []Grid
	for q.Len() > 0 {
		it := heap.Pop(q).(refItem)
		if tree.IsLeaf(it.node) {
			out = append(out, Grid{Node: it.node, Count: len(it.subset)})
			continue
		}
		var childSubsets [][]int
		var childNodes []gridtree.NodeID
		for _, c := range tree.Children(it.node) {
			sub := filterIntersecting(tree, c, rects, it.subset, nil)
			if len(sub) == 0 {
				continue
			}
			childSubsets = append(childSubsets, sub)
			childNodes = append(childNodes, c)
		}
		if len(out)+q.Len()+len(childNodes) > mt {
			out = append(out, Grid{Node: it.node, Count: len(it.subset)})
			continue
		}
		for i, c := range childNodes {
			heap.Push(q, refItem{
				node:   c,
				subset: childSubsets[i],
				err:    nodeError(tree, c, subsetRects(childSubsets[i])),
			})
		}
	}
	return out
}

func TestExpectedListSize(t *testing.T) {
	tr := newTree(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 128, MaxY: 128}, 2)
	// One region covering exactly the bottom-left level-1 quadrant.
	rects := []geo.Rect{{MinX: 0, MinY: 0, MaxX: 64, MaxY: 64}}
	// Root: |g ∩ o| / |g| = 64²/128² = 0.25.
	if got := expectedListSize(tr, tr.Root(), rects); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("root Î = %v, want 0.25", got)
	}
	// Bottom-left child: fully covered → 1. Top-right child → 0.
	kids := tr.Children(tr.Root())
	if got := expectedListSize(tr, kids[0], rects); math.Abs(got-1) > 1e-12 {
		t.Errorf("bl child Î = %v, want 1", got)
	}
	if got := expectedListSize(tr, kids[3], rects); got != 0 {
		t.Errorf("tr child Î = %v, want 0", got)
	}
}

// TestExpectedListSizeNesting: Î respects nesting — a node's Î times its
// area equals the sum of the same over its children.
func TestExpectedListSizeNesting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := gridtree.New(geo.Rect{MinX: 0, MinY: 0, MaxX: 256, MaxY: 256}, 4)
		if err != nil {
			return false
		}
		var rects []geo.Rect
		for i := 0; i < 5; i++ {
			x, y := rng.Float64()*240, rng.Float64()*240
			rects = append(rects, geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*16 + 0.5, MaxY: y + rng.Float64()*16 + 0.5})
		}
		n := gridtree.MakeNodeID(2, rng.Intn(4), rng.Intn(4))
		parentMass := expectedListSize(tr, n, rects) * tr.Rect(n).Area()
		var childMass float64
		for _, c := range tr.Children(n) {
			childMass += expectedListSize(tr, c, rects) * tr.Rect(c).Area()
		}
		return math.Abs(parentMass-childMass) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeError(t *testing.T) {
	tr := newTree(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 128, MaxY: 128}, 2)
	rects := []geo.Rect{{MinX: 0, MinY: 0, MaxX: 64, MaxY: 64}}
	// Î(root)=0.25; children Î = 1,0,0,0 →
	// error = (0.25-1)² + 3·(0.25-0)² = 0.5625 + 0.1875 = 0.75.
	if got := nodeError(tr, tr.Root(), rects); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("root error = %v, want 0.75", got)
	}
	// A uniformly covered node has error 0.
	full := []geo.Rect{tr.Space}
	if got := nodeError(tr, tr.Root(), full); got != 0 {
		t.Errorf("uniform error = %v, want 0", got)
	}
	// Leaves have error 0 by definition.
	leafTree := newTree(t, tr.Space, 0)
	if got := nodeError(leafTree, leafTree.Root(), rects); got != 0 {
		t.Errorf("leaf error = %v, want 0", got)
	}
}

func TestFilterIntersecting(t *testing.T) {
	tr := newTree(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 128, MaxY: 128}, 1)
	rects := []geo.Rect{
		{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},       // bottom-left
		{MinX: 100, MinY: 100, MaxX: 120, MaxY: 120}, // top-right
		{MinX: 60, MinY: 60, MaxX: 70, MaxY: 70},     // straddles center
	}
	kids := tr.Children(tr.Root())
	bl := filterIntersecting(tr, kids[0], rects, nil, nil)
	if len(bl) != 2 || bl[0] != 0 || bl[1] != 2 {
		t.Fatalf("bottom-left subset = %v, want [0 2]", bl)
	}
	// Subset chaining: restrict further from an existing subset.
	sub := filterIntersecting(tr, kids[3], rects, []int{1, 2}, nil)
	if len(sub) != 2 {
		t.Fatalf("top-right subset = %v, want [1 2]", sub)
	}
	// Regions touching only at the node boundary are excluded.
	edge := []geo.Rect{{MinX: 64, MinY: 0, MaxX: 70, MaxY: 10}}
	if got := filterIntersecting(tr, kids[0], edge, nil, nil); len(got) != 0 {
		t.Fatalf("boundary-touching region should be excluded, got %v", got)
	}
}

// randomRegions draws a region set built to hit the comparisons Select
// relies on: edges on grid lines (so regions touch cells and each other
// along an edge), zero-area points and segments, regions partly or wholly
// outside the space, and exact duplicates. With huge set, coordinates reach
// 1e300, so areas overflow to +Inf and node errors turn NaN.
func randomRegions(rng *rand.Rand, space geo.Rect, maxLevel int, huge bool) []geo.Rect {
	n := rng.Intn(48)
	rects := make([]geo.Rect, 0, n)
	cells := float64(int(1) << (maxLevel + 1))
	coord := func(lo, ext float64) float64 {
		if rng.Intn(2) == 0 {
			// On a grid line of the finest level or one below it.
			return lo + ext*float64(rng.Intn(int(cells)+1))/cells
		}
		// Anywhere, including up to a quarter of the space outside it.
		return lo + ext*(rng.Float64()*1.5-0.25)
	}
	for len(rects) < n {
		var r geo.Rect
		switch k := rng.Intn(10); {
		case k == 0 && len(rects) > 0:
			r = rects[rng.Intn(len(rects))]
		case k == 1:
			x, y := coord(space.MinX, space.Width()), coord(space.MinY, space.Height())
			r = geo.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}
		case k == 2:
			x, y := coord(space.MinX, space.Width()), coord(space.MinY, space.Height())
			r = geo.NewRect(x, y, x, coord(space.MinY, space.Height()))
		case k == 3 && huge:
			r = geo.NewRect(-1e300*rng.Float64(), -1e300*rng.Float64(), 1e300*rng.Float64(), 1e300*rng.Float64())
		default:
			r = geo.NewRect(coord(space.MinX, space.Width()), coord(space.MinY, space.Height()),
				coord(space.MinX, space.Width()), coord(space.MinY, space.Height()))
		}
		rects = append(rects, r)
	}
	return rects
}

// TestSelectMatchesReference: Select returns exactly the reference's grids,
// in the same order, for every budget and tree depth.
func TestSelectMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		space := geo.Rect{MinX: -50 + rng.Float64()*100, MinY: -50 + rng.Float64()*100}
		space.MaxX = space.MinX + 1 + rng.Float64()*500
		space.MaxY = space.MinY + 1 + rng.Float64()*500
		huge := rng.Intn(8) == 0
		if huge && rng.Intn(2) == 0 {
			space = geo.Rect{MinX: -1e300, MinY: -1e300, MaxX: 1e300, MaxY: 1e300}
		}
		maxLevel := rng.Intn(9)
		tr, err := gridtree.New(space, maxLevel)
		if err != nil {
			t.Log(err)
			return false
		}
		rects := randomRegions(rng, space, maxLevel, huge)
		mt := 1 + rng.Intn(64)
		got, err := Select(tr, rects, mt)
		if err != nil {
			t.Log(err)
			return false
		}
		if want := selectRef(tr, rects, mt); !slices.Equal(got, want) {
			t.Logf("seed %d level %d mt %d: got %v, want %v", seed, maxLevel, mt, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	paperSpace := geo.Rect{MinX: 0, MinY: 0, MaxX: 120, MaxY: 120}
	for level := 0; level <= 8; level++ {
		tr := newTree(t, paperSpace, level)
		for mt := 1; mt <= 64; mt++ {
			got, err := Select(tr, paperdata.Regions, mt)
			if err != nil {
				t.Fatal(err)
			}
			if want := selectRef(tr, paperdata.Regions, mt); !slices.Equal(got, want) {
				t.Fatalf("paper regions, level %d mt %d: got %v, want %v", level, mt, got, want)
			}
		}
	}
}

// twitterToken returns the regions of the most frequent token of a fixed
// synthetic Twitter corpus, with the corpus's space.
func twitterToken(tb testing.TB, n int) (geo.Rect, []geo.Rect) {
	tb.Helper()
	ds, err := gen.Twitter(gen.TwitterConfig{N: n, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	byToken := map[int][]geo.Rect{}
	best := -1
	for id := 0; id < ds.Len(); id++ {
		r := ds.Region(model.ObjectID(id))
		for _, tok := range ds.Tokens(model.ObjectID(id)) {
			t := int(tok)
			byToken[t] = append(byToken[t], r)
			if best < 0 || len(byToken[t]) > len(byToken[best]) || (len(byToken[t]) == len(byToken[best]) && t < best) {
				best = t
			}
		}
	}
	return ds.Space(), byToken[best]
}

// BenchmarkSelect runs HSS-Greedy at the default tree depth over the
// regions of one frequent token of a 20k-object synthetic Twitter corpus.
func BenchmarkSelect(b *testing.B) {
	space, rects := twitterToken(b, 20000)
	tr, err := gridtree.New(space, 12)
	if err != nil {
		b.Fatal(err)
	}
	for _, mt := range []int{64, 1024} {
		b.Run(fmt.Sprintf("regions=%d/mt=%d", len(rects), mt), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Select(tr, rects, mt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
