package ml

// Bounding-box pruning parity: kdTree.search skips a subtree when the
// query's distance to the subtree's bounding box already reaches the
// worst-of-k bound. That may never change a result. This file keeps the
// plane-only search as the oracle and proves the box-pruned search returns
// the same neighbour indices, in the same order, with bit-identical
// distances and predictions — on dense, sparse, duplicate-heavy and
// all-duplicate data, on congested-grant SLA queries and on non-finite
// queries — and fuzzes the same property on arbitrary trees.

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// planeOnlySearch is kdTree.search without the box test: the same
// iterative near-first traversal, pruning on the splitting plane alone.
func planeOnlySearch(t *kdTree, q []float64, k int, h *neighborHeap, stack *[]kdTask) {
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
		for {
			if len(st) == 0 {
				*stack = st
				return
			}
			e := st[len(st)-1]
			st = st[:len(st)-1]
			if h.Len() < k || e.diff2 < (*h)[0].d2 {
				id = e.id
				break
			}
		}
	}
}

// searchBoth runs the box-pruned search and the plane-only oracle on one
// standardized query and fails on any difference in index, order or
// distance bits. It returns the oracle's neighbours.
func searchBoth(t *testing.T, tree *kdTree, q []float64, k int, label string) []neighbor {
	t.Helper()
	var h, ho neighborHeap
	var st, sto []kdTask
	tree.search(q, k, &h, &st)
	planeOnlySearch(tree, q, k, &ho, &sto)
	got, want := h.sortedInto(nil), ho.sortedInto(nil)
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbours, oracle %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].idx != want[i].idx || math.Float64bits(got[i].d2) != math.Float64bits(want[i].d2) {
			t.Fatalf("%s: neighbour %d = (%d, %v), oracle (%d, %v)",
				label, i, got[i].idx, got[i].d2, want[i].idx, want[i].d2)
		}
	}
	return want
}

// identicalRowsData is the degenerate all-duplicates set: every feature
// row is the same point, only the targets differ.
func identicalRowsData(rows int) *Dataset {
	d := NewDataset([]string{"a", "b", "c"})
	for i := 0; i < rows; i++ {
		d.Add([]float64{3, -1, 7}, float64(i))
	}
	return d
}

// congestedGrantQueries mimics the SLA queries of candidates whose host
// cannot grant the full requirement: a training-shaped (rps, cpuMs) load
// with the CPU grant clamped to a fraction of what was asked and a memory
// deficit. Half the queries start from a training row, so exact zero and
// tied distances occur.
func congestedGrantQueries(d *Dataset, n int, seed uint64) [][]float64 {
	s := rng.New(seed, 3)
	out := make([][]float64, n)
	for i := range out {
		var q []float64
		if i%2 == 0 {
			q = append([]float64(nil), d.X[i%d.Len()]...)
		} else {
			q = []float64{s.Uniform(0.01, 300), s.Uniform(2, 30), s.Uniform(5, 400), 0, 0}
		}
		q[2] *= 0.05 + 0.5*float64(i%8)/8 // clamped grant
		q[3] = 0.25 * float64(i%4)        // memory deficit
		if i%3 == 0 {
			q[4] = s.Uniform(0, 400) // queue
		}
		out[i] = q
	}
	return out
}

// TestBoxPrunedSearchMatchesPlaneOnly holds the box-pruned search to the
// plane-only oracle: identical neighbour indices, order and distance bits,
// and bit-identical predictions, for several K on every dataset and
// query shape.
func TestBoxPrunedSearchMatchesPlaneOnly(t *testing.T) {
	sparse := sparseParityData(1200, 62)
	for _, tc := range []struct {
		name    string
		data    *Dataset
		queries func(dims int, s *rng.Stream) [][]float64
	}{
		{"dense-2d", knnData(900, 61), nil},
		{"sparse-5d", sparse, nil},
		{"duplicate-heavy", duplicateHeavyData(900, 63), nil},
		{"all-duplicates", identicalRowsData(300), nil},
		{"congested-grant", sparse, func(int, *rng.Stream) [][]float64 {
			return congestedGrantQueries(sparse, 400, 64)
		}},
		// NaN and infinite coordinates make every point's distance NaN
		// or +Inf.
		{"non-finite", sparse, func(int, *rng.Stream) [][]float64 {
			nan, inf := math.NaN(), math.Inf(1)
			return [][]float64{
				{nan, 0, 0, 0, 0}, {0.5, nan, 0.1, 0, 0}, {inf, 0, 0, 0, 0},
				{0, -inf, 0, 0, 0}, {0.1, 0.2, 0.3, inf, -inf}, {nan, nan, nan, nan, nan},
			}
		}},
	} {
		queries := tc.queries
		if queries == nil {
			queries = func(dims int, s *rng.Stream) [][]float64 {
				out := make([][]float64, 400)
				for i := range out {
					out[i] = make([]float64, dims)
					for j := range out[i] {
						out[i][j] = s.Uniform(-2, 310)
					}
					if i%5 == 0 { // on a training row: zero distance, ties
						copy(out[i], tc.data.X[i%tc.data.Len()])
					}
				}
				return out
			}
		}
		for _, k := range []int{1, 4, 9} {
			knn, err := TrainKNN(tc.data, KNNConfig{K: k, UseKDTree: true, DistanceWeight: true})
			if err != nil {
				t.Fatal(err)
			}
			var buf Buf
			for i, raw := range queries(tc.data.Width(), rng.New(65, uint64(k))) {
				want := searchBoth(t, knn.tree, knn.std.Apply(raw), knn.cfg.K, tc.name)
				if got, w := knn.PredictBuf(raw, &buf), knn.blend(want); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("%s K=%d query %d: prediction %v, oracle %v", tc.name, k, i, got, w)
				}
			}
		}
	}
}

// TestKDTreeBoxesAreTight checks the build: every node's box is exactly
// the per-axis min and max of the points stored under it.
func TestKDTreeBoxesAreTight(t *testing.T) {
	for _, d := range []*Dataset{knnData(500, 67), sparseParityData(700, 68), duplicateHeavyData(400, 69)} {
		knn, err := TrainKNN(d, DefaultKNNConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		tree := knn.tree
		var walk func(id int32) (lo, hi int32) // slot range under id
		walk = func(id int32) (int32, int32) {
			if tree.count[id] > 0 {
				return tree.first[id], tree.first[id] + tree.count[id]
			}
			lo, _ := walk(tree.first[id])
			_, hi := walk(tree.first[id] + 1)
			return lo, hi
		}
		for id := range tree.first {
			lo, hi := walk(int32(id))
			b := tree.nodeBox(int32(id))
			for a := 0; a < tree.dims; a++ {
				mn, mx := math.Inf(1), math.Inf(-1)
				for s := lo; s < hi; s++ {
					v := tree.coords[int(s)*tree.dims+a]
					mn, mx = min(mn, v), max(mx, v)
				}
				if b[2*a] != mn || b[2*a+1] != mx {
					t.Fatalf("node %d axis %d: box [%v, %v], points span [%v, %v]", id, a, b[2*a], b[2*a+1], mn, mx)
				}
			}
		}
	}
}

func finiteRow(q []float64) bool {
	for _, v := range q {
		if !isFinite(v) {
			return false
		}
	}
	return true
}

// decodeKDFuzz turns fuzz bytes into a point set, a K and queries. Byte 0
// picks the dimension (1..6), byte 1 K (1..9), byte 2 the point count;
// every later byte is one coordinate from a small grid, so duplicate rows
// and exact distance ties are common, with 253..255 standing for -Inf,
// +Inf and NaN. Bytes left after the points form the queries.
func decodeKDFuzz(data []byte) (points, queries [][]float64, k int) {
	if len(data) < 3 {
		return nil, nil, 0
	}
	dims, k, n := 1+int(data[0])%6, 1+int(data[1])%9, int(data[2])
	coord := func(b byte) float64 {
		switch b {
		case 253:
			return math.Inf(-1)
		case 254:
			return math.Inf(1)
		case 255:
			return math.NaN()
		}
		return float64(int8(b)) / 4
	}
	rows := func(raw []byte, max int) [][]float64 {
		var out [][]float64
		for len(raw) >= dims && len(out) < max {
			row := make([]float64, dims)
			for j := range row {
				row[j] = coord(raw[j])
			}
			out = append(out, row)
			raw = raw[dims:]
		}
		return out
	}
	body := data[3:]
	points = rows(body, n)
	if used := len(points) * dims; used < len(body) {
		queries = rows(body[used:], 64)
	}
	return points, queries, k
}

// FuzzKDTreeSearch builds a tree over fuzzed points and checks every
// fuzzed query against the plane-only oracle (exact indices, order and
// distance bits). When every coordinate is finite it also checks the k
// nearest distances against a brute-force scan.
func FuzzKDTreeSearch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		points, queries, k := decodeKDFuzz(data)
		if len(points) == 0 {
			return
		}
		tree := buildKDTree(points, len(points))
		for _, q := range queries {
			got := searchBoth(t, tree, q, k, "fuzz")
			if !tree.finite || !finiteRow(q) {
				continue
			}
			want := make([]float64, len(points))
			for i, p := range points {
				want[i] = sqDist(q, p)
			}
			sort.Float64s(want)
			want = want[:min(k, len(want))]
			if len(got) != len(want) {
				t.Fatalf("got %d neighbours, brute force %d", len(got), len(want))
			}
			for i := range got {
				if got[i].d2 != want[i] {
					t.Fatalf("neighbour %d at distance %v, brute force %v", i, got[i].d2, want[i])
				}
			}
		}
	})
}
