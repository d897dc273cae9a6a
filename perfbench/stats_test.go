package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so Summarize must sort
	}
	return xs
}

func TestSummarizeTailLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		tailP float64
		tail  float64
	}{
		{n: 32, tailP: 100 * 22.0 / 32, tail: 22}, // a 32-epoch drain: about p68, not p99
		{n: 1000, tailP: 99, tail: 990},
		{n: 11, tailP: 100 * 1.0 / 11, tail: 1},
	}
	for _, c := range cases {
		d := Summarize(seq(c.n))
		if d.N != c.n {
			t.Errorf("n=%d: N = %d", c.n, d.N)
		}
		if math.Abs(d.TailP-c.tailP) > 1e-9 || d.Tail != c.tail {
			t.Errorf("n=%d: tail p%.3f = %v, want p%.3f = %v", c.n, d.TailP, d.Tail, c.tailP, c.tail)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > d.Tail {
				beyond++
			}
		}
		if beyond != minTail {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, minTail)
		}
	}
}

func TestSummarizeSmallAndEmpty(t *testing.T) {
	if d := Summarize(nil); d.N != 0 || d.TailP != 0 {
		t.Errorf("empty: %+v", d)
	}
	d := Summarize(seq(10))
	if d.TailP != 0 {
		t.Errorf("10 samples cannot support any tail, got p%v", d.TailP)
	}
	if d.P50 != 5.5 || d.Max != 10 || d.Mean != 5.5 {
		t.Errorf("10 samples: %+v", d)
	}
}

func TestPctReportsSupport(t *testing.T) {
	d := Summarize(seq(1000))
	v, ok := d.Pct(99)
	if v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v (supported %v), want 990 supported", v, ok)
	}
	if _, ok := Summarize(seq(500)).Pct(99); ok {
		t.Error("p99 of 500 samples has only 5 beyond it and must be unsupported")
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping children count once", []interval{{110, 140}, {120, 150}}, 60},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"sticking out is clipped", []interval{{50, 120}, {180, 250}}, 60},
		{"outside entirely", []interval{{0, 50}, {300, 400}}, 100},
		{"covering", []interval{{0, 1000}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMedians(t *testing.T) {
	got := medians([]map[string]float64{{"a": 1, "b": 10}, {"a": 3, "b": 30}, {"a": 2, "b": 20}})
	if got["a"] != 2 || got["b"] != 20 {
		t.Errorf("medians = %v", got)
	}
}
