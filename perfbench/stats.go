package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"repro/internal/model"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile: a p99 over fewer than 1000 samples would rest on fewer than
// ten observations, so the percentile is lowered until it does not.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is one reported tail percentile: the value, the percentile it
// actually sits at and the number of samples it was taken from.
type tail struct {
	Value   float64
	Pct     float64 // effective percentile in [50, want]
	Samples int
}

// tailPct returns the highest percentile not above want (in percent)
// that still has at least minTail samples beyond it, never below the
// median, by the nearest-rank rule: the value at sorted index
// ceil(p/100·n)−1. With n ≥ 100·minTail/(100−want) samples the
// percentile is want itself.
func tailPct(xs []float64, want float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	p := want
	if limit := 100 * (1 - float64(minTail)/float64(n)); limit < p {
		p = limit
	}
	if p < 50 {
		p = 50
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return tail{Value: s[i], Pct: p, Samples: n}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// growth is the median of the last decile of xs over the median of the
// first decile (1 when xs is too short to hold two deciles).
func growth(xs []float64) float64 {
	d := len(xs) / 10
	if d == 0 {
		return 1
	}
	first := median(xs[:d])
	if first == 0 {
		return 1
	}
	return median(xs[len(xs)-d:]) / first
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// digest is FNV-1a over a byte string, rendered as hex.
func digest(b []byte) string {
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck // hash writes never fail
	return fmt.Sprintf("%016x", h.Sum64())
}

// placementDigest hashes a placement in VM-ID order, so two equal
// placements hash alike whatever their map iteration order.
func placementDigest(p model.Placement) string {
	ids := make([]int, 0, len(p))
	for vm := range p {
		ids = append(ids, int(vm))
	}
	sort.Ints(ids)
	b := make([]byte, 0, 16*len(ids))
	for _, id := range ids {
		b = fmt.Appendf(b, "%d:%d;", id, p[model.VMID(id)])
	}
	return digest(b)
}

// splitmix derives the i-th child seed of a workload seed.
func splitmix(seed uint64, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
