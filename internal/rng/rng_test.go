package rng

import (
	"math"
	"runtime"
	"testing"
	"unsafe"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("identical seeds diverged")
		}
	}
}

func TestNamedStreamsIndependent(t *testing.T) {
	a := NewNamed(42, "workload")
	b := NewNamed(42, "monitor-noise")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == 64 {
		t.Fatal("differently named streams are identical")
	}
	// Same name must reproduce.
	c := NewNamed(42, "workload")
	d := NewNamed(42, "workload")
	for i := 0; i < 64; i++ {
		if c.Float64() != d.Float64() {
			t.Fatal("same-named streams diverged")
		}
	}
}

func TestSplitReproducible(t *testing.T) {
	mk := func() []float64 {
		s := New(1, 2)
		c1 := s.Split("a")
		c2 := s.Split("b")
		out := make([]float64, 0, 8)
		for i := 0; i < 4; i++ {
			out = append(out, c1.Float64(), c2.Float64())
		}
		return out
	}
	x, y := mk(), mk()
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("split streams not reproducible")
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3, 4)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestNormMoments(t *testing.T) {
	s := New(5, 6)
	n := 20000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.Norm(10, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sum2/float64(n) - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("Norm mean = %v", mean)
	}
	if math.Abs(sd-2) > 0.1 {
		t.Fatalf("Norm sd = %v", sd)
	}
}

func TestParetoLowerBound(t *testing.T) {
	s := New(7, 8)
	for i := 0; i < 1000; i++ {
		if v := s.Pareto(3, 1.5); v < 3 {
			t.Fatalf("Pareto below xm: %v", v)
		}
	}
}

func TestExpPositiveMean(t *testing.T) {
	s := New(9, 10)
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exp(4)
		if v < 0 {
			t.Fatalf("Exp negative: %v", v)
		}
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-4) > 0.15 {
		t.Fatalf("Exp mean = %v", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(11, 12)
	n := 20000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) rate = %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(13, 14)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestIntN(t *testing.T) {
	s := New(15, 16)
	for i := 0; i < 1000; i++ {
		if v := s.IntN(7); v < 0 || v >= 7 {
			t.Fatalf("IntN out of range: %d", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(17, 18)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal non-positive: %v", v)
		}
	}
}

func TestShuffle(t *testing.T) {
	s := New(19, 20)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	orig := append([]int(nil), xs...)
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 45 {
		t.Fatalf("shuffle lost elements: %v (orig %v)", xs, orig)
	}
}

// TestStreamsOwnTheirCacheLines pins the padding against false sharing by
// address arithmetic alone: every stream is a whole number of cache lines
// starting on a line boundary, with its PCG and Rand inside, so no two
// streams, and no other object, share a line with a stream's state.
func TestStreamsOwnTheirCacheLines(t *testing.T) {
	const line = 64
	size := unsafe.Sizeof(Stream{})
	if size%line != 0 {
		t.Fatalf("Stream is %d bytes, not a multiple of the %d-byte line", size, line)
	}
	parent := New(1, 2)
	owner := map[uintptr]int{}
	keep := make([]any, 0, 128)
	for k := 0; k < 64; k++ {
		var s *Stream
		switch k % 3 {
		case 0:
			s = New(uint64(k), 7)
		case 1:
			s = NewNamed(uint64(k), "layout")
		default:
			s = parent.Split("layout")
		}
		// Interleave small allocations of other shapes, as real callers do.
		keep = append(keep, s, new([2]uint64))
		base := uintptr(unsafe.Pointer(s))
		if base%line != 0 {
			t.Fatalf("stream %d at %#x is not line-aligned", k, base)
		}
		for _, f := range []struct {
			name string
			at   uintptr
			size uintptr
		}{
			{"PCG", uintptr(unsafe.Pointer(&s.pcg)), unsafe.Sizeof(s.pcg)},
			{"Rand", uintptr(unsafe.Pointer(&s.r)), unsafe.Sizeof(s.r)},
		} {
			if f.at < base || f.at+f.size > base+size {
				t.Fatalf("stream %d: %s outside its stream's lines", k, f.name)
			}
		}
		for a := base; a < base+size; a += line {
			if prev, dup := owner[a/line]; dup {
				t.Fatalf("streams %d and %d share line %#x", prev, k, a)
			}
			owner[a/line] = k
		}
	}
	runtime.KeepAlive(keep)
}
