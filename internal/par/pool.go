package par

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Pool is a persistent fan-out for a hot loop that runs many times, such
// as one simulation tick after another. Its background goroutines — one
// fewer than the width, which is capped at GOMAXPROCS when the pool is
// made — stay alive between calls; Run publishes a call, hands out
// contiguous chunks off a shared cursor (the self-scheduling of
// ForEachChunkWorker, with the caller taking part as worker 0), and
// returns once every chunk is done. Unlike the ForEach family it spawns
// nothing and allocates nothing per call. A one-worker pool has no
// goroutines: Run is a plain call of fn(0, 0, n) on the caller.
//
// Idle workers spin briefly and then poll with sleeps instead of parking
// on a channel or semaphore: a parked goroutine takes a runtime
// wait record from a per-P cache and returns it on whichever P it wakes
// on, so under migration the caches drift empty and the runtime allocates
// again — a few bytes a call that would break the tick's zero-alloc gate.
// Workers join a call only while the caller is still inside it, so a
// sleeping worker never delays Run; it just leaves its share to the
// others. Each sleep is an eighth of the time the worker has been idle,
// between workerNap and workerNapMax: a worker misses at most that much
// of a call that follows a short gap, and an idle pool costs each worker
// one wakeup every workerNapMax.
//
// The background goroutines reference only the pool's internal state,
// never the function of a finished Run, so they do not keep their owner
// alive. When the *Pool becomes unreachable a runtime cleanup stops them;
// Close stops them at once. Run must not be called concurrently with
// itself or after Close.
type Pool struct {
	s       *poolState
	cleanup runtime.Cleanup
}

// Layout of poolState.call: the call's epoch in the high 32 bits, an
// open flag, and the number of background workers inside the call.
const (
	callOpen   = 1 << 16
	callActive = callOpen - 1
	callEpoch  = 1 << 32
)

const (
	// workerSpin is how long an idle worker keeps checking for the next
	// call before it starts sleeping: long enough to catch back-to-back
	// calls, short enough not to burn a core between ticks.
	workerSpin = 200 * time.Microsecond
	// workerNap and workerNapMax bound the sleep between checks after
	// that.
	workerNap    = time.Millisecond
	workerNapMax = 8 * time.Millisecond
)

// poolState is what the worker goroutines share with Run.
type poolState struct {
	workers int // the configured width
	width0  int // the width at NewPool: GOMAXPROCS caps it there
	call    atomic.Uint64
	stopped atomic.Bool

	// Per-call state, written by Run before it opens the call and
	// cleared after the last worker has left it.
	fn     func(worker, lo, hi int)
	n      int
	chunk  int
	width  int // this call's width; workers w >= width sit it out
	cursor atomic.Int64
}

// NewPool starts a pool of the given width; workers <= 0 means
// DefaultWorkers. It starts min(workers, GOMAXPROCS)-1 goroutines:
// raising GOMAXPROCS later does not widen the pool.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	s := &poolState{workers: workers, width0: min(workers, runtime.GOMAXPROCS(0))}
	for w := 1; w < s.width0; w++ {
		go s.loop(w)
	}
	p := &Pool{s: s}
	if s.width0 > 1 {
		p.cleanup = runtime.AddCleanup(p, (*poolState).stop, s)
	}
	return p
}

// Workers returns the pool's configured width, the caller included.
func (p *Pool) Workers() int { return p.s.workers }

// Run invokes fn(w, lo, hi) over contiguous, disjoint blocks covering
// [0, n), using up to Workers goroutines (never more than GOMAXPROCS,
// now or at NewPool); no two concurrent invocations share a w. It
// returns once every block is done.
func (p *Pool) Run(n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	s := p.s
	w := min(s.width0, n, runtime.GOMAXPROCS(0))
	if w == 1 {
		fn(0, 0, n)
		return
	}
	// Finer than dispatchChunk: the caller waits out the last chunk of
	// every call, and a Pool's calls come one after another.
	s.fn, s.n, s.chunk, s.width = fn, n, max(n/(16*w), 1), w
	s.cursor.Store(0)
	s.call.Store(s.call.Load()&^(callEpoch-1) + callEpoch | callOpen)
	s.drain(0)
	// Close the call to latecomers, then wait out the workers inside it.
	for c := s.call.Load(); !s.call.CompareAndSwap(c, c&^callOpen); c = s.call.Load() {
	}
	for s.call.Load()&callActive != 0 {
		runtime.Gosched()
	}
	s.fn = nil // do not pin the caller's state between calls
}

// Close stops the background goroutines. It is idempotent.
func (p *Pool) Close() {
	p.cleanup.Stop()
	p.s.stop()
}

func (s *poolState) loop(w int) {
	var seen uint64 // epoch of the last call this worker joined
	idle := time.Now()
	for !s.stopped.Load() {
		c := s.call.Load()
		if c&callOpen == 0 || c/callEpoch == seen {
			if d := time.Since(idle); d < workerSpin {
				runtime.Gosched()
			} else {
				time.Sleep(min(max(d/8, workerNap), workerNapMax))
			}
			continue
		}
		if !s.call.CompareAndSwap(c, c+1) {
			continue // the call closed, or another worker joined first
		}
		seen = c / callEpoch
		if w < s.width {
			s.drain(w)
			// Only work resets the backoff: a worker that GOMAXPROCS,
			// lowered since NewPool, keeps out of every call backs off
			// as if idle.
			idle = time.Now()
		}
		s.call.Add(^uint64(0)) // leave: active count - 1
	}
}

func (s *poolState) drain(w int) {
	for {
		lo, hi, ok := nextChunk(&s.cursor, s.n, s.chunk)
		if !ok {
			return
		}
		s.fn(w, lo, hi)
	}
}

func (s *poolState) stop() { s.stopped.Store(true) }
