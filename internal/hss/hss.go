// Package hss implements the Hierarchical hybrid Signature Selection (HSS)
// problem of Section 5.2 and its greedy solution (Algorithm 2, Figure 11).
//
// Given the set of object regions that contain a token t and a budget mt,
// HSS-Greedy selects at most mt hierarchical grids from the grid tree so
// that the summed grid error (Definition 6) is small: it repeatedly splits
// the enqueued node with the largest error into its four children while the
// budget allows. The exact problem is NP-hard (Theorem 1, by reduction from
// rectangular partitioning), which is why a greedy approximation is used.
//
// A node's error is the approximation Error(n) = Σ_{child c} (Î(n) − Î(c))²,
// where Î(g) = Σ_o |g ∩ o.R| / |g| is the expected inverted-list size of
// grid g under uniformly placed queries; leaves have error 0.
package hss

import (
	"fmt"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/gridtree"
)

// Grid is one selected hierarchical grid: the tree node plus the number of
// subject regions intersecting it (count(g), which defines the global order
// of hierarchical grids — ascending level, then ascending count).
type Grid struct {
	Node  gridtree.NodeID
	Count int
}

// queued is a heap entry: an enqueued grid-tree node, its error, and the
// slot of its pass result in selector.passes.
type queued struct {
	err  float64
	node gridtree.NodeID
	slot uint32
}

// errorQueue is a max-heap on node error, with NodeID as deterministic
// tie-break. Its sift steps are those of container/heap, so the pop order
// is the same even where a NaN error leaves the order partial.
type errorQueue []queued

func (q errorQueue) less(i, j int) bool {
	if q[i].err != q[j].err {
		return q[i].err > q[j].err
	}
	return q[i].node < q[j].node
}

func (q *errorQueue) push(it queued) {
	*q = append(*q, it)
	h := *q
	for j := len(h) - 1; ; {
		i := (j - 1) / 2
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *errorQueue) pop() queued {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// pass is what one scan over an enqueued node's regions yields: the
// region count, each child's Î, and each child's regions, which are
// arena[bounds[k]:bounds[k+1]]: ascending indices into the caller's rects,
// held as uint32 like the object IDs they stand for.
type pass struct {
	count  int
	kidI   [4]float64
	bounds [5]int
}

// expectedSize turns a summed intersection area into Î over a grid of the
// given area.
func expectedSize(sum, area float64) float64 {
	if area <= 0 {
		return 0
	}
	return sum / area
}

// selector holds the inputs of one Select call, the pass results of the
// enqueued nodes (with the slots that dequeued nodes freed), the arena
// their children's regions are stored in, and the per-child scratch of one
// pass.
type selector struct {
	tree    *gridtree.Tree
	rects   []geo.Rect
	passes  []pass
	free    []uint32
	arena   []uint32
	scratch [4][]uint32
}

// price enqueues node n, whose Î is in and whose regions are subset. For an
// inner node it makes the one pass over subset that yields every child's
// summed intersection area and regions, and from those n's error. The sums
// add the same positive areas in the same order as summing over each
// child's own regions, so a child's Î is exact and never recomputed.
func (s *selector) price(q *errorQueue, n gridtree.NodeID, in float64, subset []uint32) {
	p := pass{count: len(subset)}
	var err float64
	if !s.tree.IsLeaf(n) {
		var cr [4]geo.Rect
		for k, c := range s.tree.Children(n) {
			cr[k] = s.tree.Rect(c)
			s.scratch[k] = s.scratch[k][:0]
		}
		var sum [4]float64
		for _, i := range subset {
			o := s.rects[i]
			for k := range cr {
				if a := cr[k].IntersectionArea(o); a > 0 {
					sum[k] += a
					s.scratch[k] = append(s.scratch[k], i)
				}
			}
		}
		p.bounds[0] = len(s.arena)
		for k := range cr {
			s.arena = append(s.arena, s.scratch[k]...)
			p.bounds[k+1] = len(s.arena)
			p.kidI[k] = expectedSize(sum[k], cr[k].Area())
			d := in - p.kidI[k]
			err += d * d
		}
	}
	slot := uint32(len(s.passes))
	if last := len(s.free) - 1; last >= 0 {
		slot = s.free[last]
		s.free = s.free[:last]
		s.passes[slot] = p
	} else {
		s.passes = append(s.passes, p)
	}
	q.push(queued{err: err, node: n, slot: slot})
}

// Select runs HSS-Greedy for the given object regions under budget mt and
// returns the selected grids with their intersection counts. Children that
// intersect no region are dropped (they can hold no postings), so the result
// covers every region but not necessarily the whole space. The result is
// empty when no region overlaps the tree's space.
func Select(tree *gridtree.Tree, rects []geo.Rect, mt int) ([]Grid, error) {
	if mt < 1 {
		return nil, fmt.Errorf("hss: budget %d must be at least 1", mt)
	}
	s := selector{tree: tree, rects: rects}
	root := tree.Root()
	rr := tree.Rect(root)
	var sum float64
	var rootSubset []uint32
	for i, o := range rects {
		if a := rr.IntersectionArea(o); a > 0 {
			sum += a
			rootSubset = append(rootSubset, uint32(i))
		}
	}
	if len(rootSubset) == 0 {
		return nil, nil
	}

	var q errorQueue
	s.price(&q, root, expectedSize(sum, rr.Area()), rootSubset)
	var out []Grid
	for len(q) > 0 {
		it := q.pop()
		p := s.passes[it.slot]
		s.free = append(s.free, it.slot)
		if tree.IsLeaf(it.node) {
			out = append(out, Grid{Node: it.node, Count: p.count})
			continue
		}
		nonEmpty := 0
		for k := range 4 {
			if p.bounds[k+1] > p.bounds[k] {
				nonEmpty++
			}
		}
		// Splitting replaces the dequeued grid with its non-empty children;
		// every queued or finalized grid contributes at least one output
		// grid, so the final size would be at least the sum below. Keep the
		// node whole when that would exceed the budget (the |Gt|+|Q|+|Nc|-1
		// check of Algorithm 2, with |Q| counted before the dequeue).
		if len(out)+len(q)+nonEmpty > mt {
			out = append(out, Grid{Node: it.node, Count: p.count})
			continue
		}
		for k, c := range tree.Children(it.node) {
			if p.bounds[k+1] > p.bounds[k] {
				s.price(&q, c, p.kidI[k], s.arena[p.bounds[k]:p.bounds[k+1]])
			}
		}
	}
	return out, nil
}
