package ml

import (
	"sort"
)

// kdTree is a static k-d index over standardized feature rows, used to
// accelerate k-NN queries. The layout is flat and leaf-bucketed: node
// metadata lives in dense parallel slices (no per-node heap objects), the
// two children of an interior node are adjacent records (left = first,
// right = first+1), and the points themselves are copied into one
// contiguous backing array in tree order, so a leaf scan is a tight loop
// over adjacent memory. Interior nodes hold no points — they only split —
// which is what lets the scan stay branch-light.
//
// Every node also stores the tight bounding box of the points under it,
// so the search can skip a far subtree whose box is already out of reach
// even when its splitting plane is not (see search).
//
// The k-nearest set it returns is identical to the classic
// one-point-per-node tree's (and to brute force) up to exact distance
// ties: pruning uses the strict d2 < bound test matching the heap's
// strict acceptance, so a skipped subtree can only hold points that would
// have been rejected anyway.
type kdTree struct {
	// Per-node columns, index-parallel. count[id] > 0 marks a leaf.
	axis   []int32   // interior: split axis
	thresh []float64 // interior: split value (left side strictly below)
	first  []int32   // interior: left child id; leaf: first point slot
	count  []int32   // leaf: points in the bucket; 0 for interior
	// box holds each node's bounding box, min and max interleaved per
	// axis: box[id*2*dims+2*a] and box[id*2*dims+2*a+1] bound axis a.
	box []float64

	// Point storage in tree order.
	coords []float64 // slot-major rows: coords[slot*dims : (slot+1)*dims]
	ptIdx  []int32   // slot -> index into the owner's row storage
	dims   int
	// finite records that every stored coordinate is finite, which the
	// box bound needs (see boxWithin).
	finite bool
}

// kdLeafSize is the bucket capacity: big enough that the contiguous scan
// amortises the descent, small enough that pruning still skips most data.
const kdLeafSize = 16

// buildKDTree constructs the tree by recursive median split on the axis
// of greatest spread, bucketing points into leaves of up to kdLeafSize.
func buildKDTree(points [][]float64, n int) *kdTree {
	t := &kdTree{}
	if n == 0 {
		return t
	}
	t.dims = len(points[0])
	t.finite = true
	t.coords = make([]float64, 0, n*t.dims)
	t.ptIdx = make([]int32, 0, n)
	b := kdBuilder{t: t, points: points}
	b.sorter.points = points
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	b.alloc(1)
	b.fill(0, idx)
	return t
}

// kdBuilder carries the construction state; the sorter is reused across
// splits so sorting never allocates a fresh closure per node.
type kdBuilder struct {
	t      *kdTree
	points [][]float64
	sorter kdAxisSorter
}

// alloc appends n zeroed node records and returns the id of the first.
func (b *kdBuilder) alloc(n int) int32 {
	t := b.t
	id := int32(len(t.first))
	for i := 0; i < n; i++ {
		t.axis = append(t.axis, 0)
		t.thresh = append(t.thresh, 0)
		t.first = append(t.first, 0)
		t.count = append(t.count, 0)
	}
	t.box = append(t.box, make([]float64, n*2*t.dims)...)
	return id
}

// nodeBox is node id's bounding box, min/max interleaved per axis.
func (t *kdTree) nodeBox(id int32) []float64 {
	w := 2 * t.dims
	return t.box[int(id)*w : int(id)*w+w]
}

// fill turns the already-allocated record id into a leaf or a split over
// the given points.
func (b *kdBuilder) fill(id int32, idx []int) {
	if len(idx) <= kdLeafSize {
		b.leaf(id, idx)
		return
	}
	axis := b.widestAxis(idx)
	b.sorter.idx, b.sorter.axis = idx, axis
	sort.Stable(&b.sorter)
	mid := len(idx) / 2
	// Move mid left past duplicates so the split value strictly bounds the
	// left side: every left point is < thresh, every right point >= thresh,
	// which is what the pruning bound relies on.
	for mid > 0 && b.points[idx[mid-1]][axis] == b.points[idx[mid]][axis] {
		mid--
	}
	if mid == 0 {
		// The whole lower half repeats one value (common for sparse
		// features like a mostly-zero queue column): split above the run
		// instead, at the first strictly larger value.
		mid = len(idx) / 2
		for mid < len(idx) && b.points[idx[mid]][axis] == b.points[idx[mid-1]][axis] {
			mid++
		}
		if mid == len(idx) {
			// Constant on the widest axis — all axes constant, so the
			// points are identical. Bucket the lot.
			b.leaf(id, idx)
			return
		}
	}
	left := b.alloc(2) // children adjacent: right child is left+1
	t := b.t
	t.axis[id] = int32(axis)
	t.thresh[id] = b.points[idx[mid]][axis]
	t.first[id] = left
	t.count[id] = 0
	b.fill(left, idx[:mid])
	b.fill(left+1, idx[mid:])
	bx, l, r := t.nodeBox(id), t.nodeBox(left), t.nodeBox(left+1)
	for a := 0; a < len(bx); a += 2 {
		bx[a], bx[a+1] = min(l[a], r[a]), max(l[a+1], r[a+1])
	}
}

// leaf copies the bucket's points into the contiguous backing array and
// records their bounding box.
func (b *kdBuilder) leaf(id int32, idx []int) {
	t := b.t
	t.first[id] = int32(len(t.ptIdx))
	t.count[id] = int32(len(idx))
	bx := t.nodeBox(id)
	for a, v := range b.points[idx[0]] {
		bx[2*a], bx[2*a+1] = v, v
	}
	for _, p := range idx {
		t.ptIdx = append(t.ptIdx, int32(p))
		t.coords = append(t.coords, b.points[p]...)
		for a, v := range b.points[p] {
			bx[2*a], bx[2*a+1] = min(bx[2*a], v), max(bx[2*a+1], v)
			if !isFinite(v) {
				t.finite = false
			}
		}
	}
}

func (b *kdBuilder) widestAxis(idx []int) int {
	if len(idx) == 0 || len(b.points[idx[0]]) == 0 {
		return 0
	}
	dims := len(b.points[idx[0]])
	best, bestSpread := 0, -1.0
	for d := 0; d < dims; d++ {
		lo, hi := b.points[idx[0]][d], b.points[idx[0]][d]
		for _, i := range idx[1:] {
			v := b.points[i][d]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if spread := hi - lo; spread > bestSpread {
			bestSpread = spread
			best = d
		}
	}
	return best
}

// kdAxisSorter stable-sorts point indices by one coordinate without the
// per-split closure allocation of sort.Slice.
type kdAxisSorter struct {
	idx    []int
	points [][]float64
	axis   int
}

func (s *kdAxisSorter) Len() int { return len(s.idx) }
func (s *kdAxisSorter) Less(a, b int) bool {
	return s.points[s.idx[a]][s.axis] < s.points[s.idx[b]][s.axis]
}
func (s *kdAxisSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// kdTask is one deferred far-subtree visit on the iterative search stack:
// the node to descend into and the squared distance from the query to the
// splitting plane guarding it.
type kdTask struct {
	id    int32
	diff2 float64
}

// search collects the k nearest stored points to q into the caller's heap
// (callers drain it with sortedInto for ascending-distance order). stack
// is reusable traversal scratch: it grows once to the tree depth and is
// then shared by every query of a batch, so repeated searches allocate
// nothing.
//
// The traversal is the classic near-first recursion made iterative:
// descend to the nearest leaf, pushing every far sibling with its plane
// distance, scan the leaf, then pop. The stack is LIFO, so a far entry is
// popped exactly when its near sibling's subtree has completed — the heap
// bound at pop time equals the bound the recursion would have tested after
// returning from the near call.
//
// A popped subtree is visited only if it passes two tests against the
// worst-of-k distance: the plane test (diff² < worst, one compare) and
// then the box test (boxWithin). Both only skip subtrees whose every
// point the strict d2 < worst leaf test would reject, so a skip leaves
// the heap exactly as the visit would have: visit order, heaps, tie
// outcomes and predictions are bit-identical to plane-only pruning.
func (t *kdTree) search(q []float64, k int, h *neighborHeap, stack *[]kdTask) {
	if len(t.first) == 0 {
		return
	}
	st := (*stack)[:0]
	id := int32(0)
	for {
		for t.count[id] == 0 {
			diff := q[t.axis[id]] - t.thresh[id]
			near := t.first[id]
			far := near + 1
			if diff > 0 {
				near, far = far, near
			}
			st = append(st, kdTask{far, diff * diff})
			id = near
		}
		t.scanLeaf(id, q, k, h)
		// Pop the next surviving far subtree.
		for {
			if len(st) == 0 {
				*stack = st
				return
			}
			e := st[len(st)-1]
			st = st[:len(st)-1]
			if h.Len() < k {
				id = e.id
				break
			}
			worst := (*h)[0].d2
			if e.diff2 < worst && (!t.finite || t.boxWithin(e.id, q, worst)) {
				id = e.id
				break
			}
		}
	}
}

// boxWithin reports whether the squared distance from q to node id's
// bounding box is below bound. The distance is summed axis by axis, left
// to right, with the same d := q - edge; s += d*d steps as the leaf
// kernel (the same expression shape, so a platform that fuses the
// multiply-add fuses both), and exits as soon as the partial sum reaches
// bound.
//
// That makes it a lower bound in floating point, not only in exact
// arithmetic: for a point p in the box, every axis term satisfies
// |q - edge| <= |q - p| after rounding (subtraction and squaring are
// monotone) or is zero, and rounded addition of non-negative terms is
// monotone, so every partial sum here is <= the matching partial sum of
// leafDistWithin(q, p). A box at or beyond bound therefore holds only
// points that leafDistWithin rejects. (An incremental rd - old + new
// update is not monotone after rounding, so it is not used.)
//
// The argument needs finite stored points: a NaN coordinate, or an
// infinite one meeting an infinite query coordinate, makes that point's
// distance NaN, which the leaf test accepts, so search skips the box test
// on trees with non-finite points. Non-finite queries need no such guard:
// a NaN coordinate makes every distance NaN, so once the heap is full the
// bound is NaN and no box test fails, and an infinite one makes every
// distance +Inf, which the leaf test rejects anyway.
func (t *kdTree) boxWithin(id int32, q []float64, bound float64) bool {
	b := t.nodeBox(id)
	b = b[:2*len(q)] // bounds-check hint
	var s float64
	for a, v := range q {
		var d float64
		if lo := b[2*a]; v < lo {
			d = v - lo
		} else if hi := b[2*a+1]; v > hi {
			d = v - hi
		} else {
			continue
		}
		s += d * d
		if s >= bound {
			return false
		}
	}
	return true
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return v-v == 0 }

// scanLeaf runs one leaf bucket through the neighbour heap. The warm-up
// phase (heap not yet holding k candidates) pays the full distance and
// pushes unconditionally; the steady phase runs the branch-minimal kernel
// against the current worst-of-k distance and replaces the heap root on
// acceptance — exactly the two cases of the recursive leaf scan, with the
// heap-fullness branch hoisted out of the per-point loop.
func (t *kdTree) scanLeaf(id int32, q []float64, k int, h *neighborHeap) {
	slot := t.first[id]
	c := t.count[id]
	off := int(slot) * t.dims
	s := int32(0)
	for ; s < c && h.Len() < k; s++ {
		h.push(neighbor{int(t.ptIdx[slot+s]), sqDist(q, t.coords[off:off+t.dims])})
		off += t.dims
	}
	for ; s < c; s++ {
		p := t.coords[off : off+t.dims]
		off += t.dims
		if d2, within := leafDistWithin(q, p, (*h)[0].d2); within {
			(*h)[0] = neighbor{int(t.ptIdx[slot+s]), d2}
			h.fixRoot()
		}
	}
}

// leafDistWithin is the leaf-scan distance kernel: squared Euclidean
// distance with the partial-distance exit hoisted from once per dimension
// to once per unrolled 4-wide block. Rejection is unchanged — partial sums
// are monotone, so "some prefix ≥ bound" and "the full sum ≥ bound" are
// the same predicate no matter how often it is tested — and accepted sums
// accumulate through a single accumulator in the same dimension order as
// sqDist, so accepted values are bit-identical too. (A multi-accumulator
// reassociation would vectorize better but change float results; the
// frozen parity oracles forbid that.)
func leafDistWithin(q, p []float64, bound float64) (float64, bool) {
	p = p[:len(q)] // bounds-check hint for the unrolled loads below
	var s float64
	i := 0
	for ; i+4 <= len(q); i += 4 {
		d0 := q[i] - p[i]
		s += d0 * d0
		d1 := q[i+1] - p[i+1]
		s += d1 * d1
		d2 := q[i+2] - p[i+2]
		s += d2 * d2
		d3 := q[i+3] - p[i+3]
		s += d3 * d3
		if s >= bound {
			return 0, false
		}
	}
	for ; i < len(q); i++ {
		d := q[i] - p[i]
		s += d * d
	}
	if s >= bound {
		return 0, false
	}
	return s, true
}

// sqDistWithin is sqDist with an early exit once the partial sum reaches
// bound. Partial sums only grow, so a rejected point is exactly a point
// whose full distance would fail the d2 < bound test, and an accepted
// point's distance is the same sum in the same order — selection and
// values are bit-identical to the full computation. leafDistWithin is the
// block-unrolled form of the same predicate; this scalar form is kept as
// the reference (the parity oracle scans with it).
func sqDistWithin(a, b []float64, bound float64) (float64, bool) {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
		if s >= bound {
			return 0, false
		}
	}
	return s, true
}
