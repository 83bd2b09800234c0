package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs raises GOMAXPROCS to at least n for the test, so a pool of
// that width really runs that wide.
func withProcs(t *testing.T, n int) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin,
// under which every pool call runs inline on the caller and the sharded
// path goes unmeasured. Like AllocsPerRun it runs f once first and
// truncates the average.
func allocsPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestPoolRunCoversRangeOnce: every index of every call is visited
// exactly once, by a worker id in range, over many back-to-back calls of
// varying sizes — including calls narrower than the pool.
func TestPoolRunCoversRangeOnce(t *testing.T) {
	withProcs(t, 4)
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(workers)
		for call, n := range []int{1, 3, 1000, 0, 7, 64, 5000, 2} {
			seen := make([]int32, n)
			var bad atomic.Int32
			p.Run(n, func(w, lo, hi int) {
				if w < 0 || w >= workers || lo < 0 || hi > n || lo >= hi {
					bad.Store(1)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			if bad.Load() != 0 {
				t.Fatalf("workers=%d call %d: bad worker id or block", workers, call)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d call %d: index %d visited %d times", workers, call, i, c)
				}
			}
		}
		p.Close()
		p.Close() // idempotent
	}
}

// TestPoolWorkerIDsDisjoint: no two concurrent invocations share a
// worker id, so per-worker scratch indexed by w is race-free.
func TestPoolWorkerIDsDisjoint(t *testing.T) {
	withProcs(t, 4)
	const workers = 4
	p := NewPool(workers)
	defer p.Close()
	var busy [workers]atomic.Int32
	var clash atomic.Int32
	for range 50 {
		p.Run(4000, func(w, lo, hi int) {
			if !busy[w].CompareAndSwap(0, 1) {
				clash.Store(1)
			}
			busy[w].Store(0)
		})
	}
	if clash.Load() != 0 {
		t.Fatal("two invocations shared a worker id concurrently")
	}
}

// TestPoolRunZeroAlloc: a call allocates nothing, whatever the width.
func TestPoolRunZeroAlloc(t *testing.T) {
	withProcs(t, 4)
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(workers)
		sum := make([]int64, 256)
		fn := func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				sum[i]++
			}
		}
		for range 10 {
			p.Run(len(sum), fn)
		}
		if avg := allocsPerRun(200, func() { p.Run(len(sum), fn) }); avg != 0 {
			t.Fatalf("workers=%d: Run allocates %d times per call, want 0", workers, avg)
		}
		p.Close()
	}
}

// TestPoolStoppedWhenUnreachable: a pool dropped without Close stops its
// goroutines once the garbage collector finds its owner unreachable —
// which needs the workers not to hold the owner through the function of
// a finished call.
func TestPoolStoppedWhenUnreachable(t *testing.T) {
	type owner struct {
		pool *Pool
		hits []int
	}
	withProcs(t, 4)
	base := settledGoroutines()
	func() {
		o := &owner{pool: NewPool(4), hits: make([]int, 100)}
		o.pool.Run(len(o.hits), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				o.hits[i]++
			}
		})
	}()
	if !waitGoroutines(base, 5*time.Second) {
		t.Fatalf("%d goroutines, want %d: dropped pool's workers still running", runtime.NumGoroutine(), base)
	}
}

// TestPoolWidthCappedAtProcs: a pool starts no goroutine that
// GOMAXPROCS would leave without work, and raising GOMAXPROCS later does
// not widen its calls.
func TestPoolWidthCappedAtProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	base := settledGoroutines()
	p := NewPool(4)
	defer p.Close()
	if n := runtime.NumGoroutine(); n != base+1 {
		t.Fatalf("4-wide pool at GOMAXPROCS 2 runs %d goroutines, want %d", n-base, 1)
	}
	if got := p.Workers(); got != 4 {
		t.Fatalf("Workers() = %d, want the configured 4", got)
	}
	runtime.GOMAXPROCS(4)
	var maxW atomic.Int32
	for range 20 {
		p.Run(4000, func(w, lo, hi int) {
			for m := maxW.Load(); int32(w) > m && !maxW.CompareAndSwap(m, int32(w)); m = maxW.Load() {
			}
		})
	}
	if m := maxW.Load(); m > 1 {
		t.Fatalf("worker id %d in a pool made 2 wide", m)
	}
}

// settledGoroutines returns the goroutine count once the workers of
// pools stopped by earlier tests have exited.
func settledGoroutines() int {
	runtime.GC()
	n := runtime.NumGoroutine()
	for stable := 0; stable < 5; {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}

// waitGoroutines collects garbage until the goroutine count is back at
// want, or the deadline passes.
func waitGoroutines(want int, d time.Duration) bool {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		runtime.GC()
		if runtime.NumGoroutine() <= want {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}
