package main

import (
	"math"
	"sort"
)

// Dist summarizes a timing distribution the way the benchmark reports
// every timing: the median, plus the highest percentile that still has at
// least minTail samples beyond it, always with the sample count. A
// 32-epoch drain therefore yields a tail near p68, not an unsupported p99.
type Dist struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	TailP  float64 `json:"tail_pct"` // 0 when fewer than minTail+1 samples
	Tail   float64 `json:"tail"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	sorted []float64
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// Summarize sorts a copy of xs and computes its Dist.
func Summarize(xs []float64) Dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := Dist{N: len(s), sorted: s}
	if len(s) == 0 {
		return d
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	d.Mean = sum / float64(len(s))
	d.P50 = quantileSorted(s, 0.5)
	d.Max = s[len(s)-1]
	if len(s) > minTail {
		// Nearest rank n-minTail leaves exactly minTail samples above it.
		rank := len(s) - minTail
		d.TailP = 100 * float64(rank) / float64(len(s))
		d.Tail = s[rank-1]
	}
	return d
}

// Pct returns the p-th percentile (0 < p < 100) by nearest rank, and
// whether at least minTail samples lie beyond it — a percentile without
// that support must not be reported as if it were measured.
func (d Dist) Pct(p float64) (float64, bool) {
	n := len(d.sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return d.sorted[rank-1], n-rank >= minTail
}

// quantileSorted returns the q-quantile (0..1) of sorted data, linearly
// interpolated (the median of an even count is the mean of the middle two).
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// interval is a closed-open time range in nanoseconds since run start.
type interval struct{ start, end int64 }

// coveredWithin returns how much of parent the union of children covers.
// Children may overlap each other (concurrent workers) and may stick out
// of the parent; only the overlap with parent counts, and only once.
func coveredWithin(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	return unionLen(clipped)
}

// unionLen is the total length of the union of the intervals.
func unionLen(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(a, b int) bool { return s[a].start < s[b].start })
	var total int64
	cur := s[0]
	for _, x := range s[1:] {
		if x.start > cur.end {
			total += cur.end - cur.start
			cur = x
			continue
		}
		if x.end > cur.end {
			cur.end = x.end
		}
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - coveredWithin(parent, children)
}
