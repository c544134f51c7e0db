package knn

import (
	"context"
	"fmt"
	"math"
	"testing"

	"knnshapley/internal/dataset"
	"knnshapley/internal/vec"
)

// collect drains a stream with the given batch size, deep-copying each
// TestPoint (stream buffers are reused between batches).
func collect(t *testing.T, s *Stream, batch int) []*TestPoint {
	t.Helper()
	var out []*TestPoint
	dst := make([]*TestPoint, batch)
	for {
		n, err := s.NextBatch(context.Background(), dst)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		for _, tp := range dst[:n] {
			cp := *tp
			cp.Dist = append([]float64(nil), tp.Dist...)
			cp.Correct = append([]bool(nil), tp.Correct...)
			out = append(out, &cp)
		}
	}
}

func assertSameTestPoints(t *testing.T, got, want []*TestPoint) {
	t.Helper()
	if msg := diffTestPoints(got, want); msg != "" {
		t.Fatal(msg)
	}
}

// diffTestPoints describes the first difference between two test point
// lists (distances compared bitwise), or returns "" when they agree.
func diffTestPoints(got, want []*TestPoint) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d test points, want %d", len(got), len(want))
	}
	for j := range want {
		g, w := got[j], want[j]
		if g.Kind != w.Kind || g.K != w.K || g.YTest != w.YTest {
			return fmt.Sprintf("test point %d header mismatch: %+v vs %+v", j, g, w)
		}
		for i := range w.Dist {
			if g.Dist[i] != w.Dist[i] {
				return fmt.Sprintf("test point %d dist[%d] = %v, want %v (bitwise)", j, i, g.Dist[i], w.Dist[i])
			}
		}
		for i := range w.Correct {
			if g.Correct[i] != w.Correct[i] {
				return fmt.Sprintf("test point %d correct[%d] mismatch", j, i)
			}
		}
	}
	return ""
}

// The blocked flat-storage stream must reproduce the eager BuildTestPoints
// distances bit-for-bit, for every batch size and both L2 metrics.
func TestStreamMatchesBuildTestPoints(t *testing.T) {
	train := dataset.MNISTLike(150, 11)
	test := dataset.MNISTLike(23, 12)
	for _, metric := range []vec.Metric{vec.L2, vec.SquaredL2, vec.L1} {
		want, err := BuildTestPoints(UnweightedClass, 3, nil, metric, train, test)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 7, 23, 64} {
			s, err := NewStream(UnweightedClass, 3, nil, metric, train, test)
			if err != nil {
				t.Fatal(err)
			}
			got := collect(t, s, batch)
			assertSameTestPoints(t, got, want)
		}
	}
}

// Non-contiguous datasets must fall back to the row-wise path and still
// match the eager build.
func TestStreamFallbackWithoutFlatStorage(t *testing.T) {
	train := dataset.MNISTLike(60, 21).Subset([]int{5, 2, 7, 40, 13, 22, 39, 1, 0, 58})
	train.Classes = 10
	test := dataset.MNISTLike(9, 22)
	if _, ok := train.Flat(); ok {
		t.Fatal("subset dataset unexpectedly contiguous")
	}
	want, err := BuildTestPoints(UnweightedClass, 2, nil, vec.L2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(UnweightedClass, 2, nil, vec.L2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTestPoints(t, collect(t, s, 4), want)
}

func TestStreamRegression(t *testing.T) {
	train := dataset.Regression(dataset.RegressionConfig{Name: "r", N: 40, Dim: 6, Noise: 0.1, Seed: 1})
	test := dataset.Regression(dataset.RegressionConfig{Name: "r", N: 11, Dim: 6, Noise: 0.1, Seed: 2})
	want, err := BuildTestPoints(UnweightedRegress, 3, nil, vec.L2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(UnweightedRegress, 3, nil, vec.L2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, s, 5)
	if len(got) != len(want) {
		t.Fatalf("%d test points, want %d", len(got), len(want))
	}
	for j := range want {
		if got[j].YTest != want[j].YTest {
			t.Fatalf("test point %d YTest %v, want %v", j, got[j].YTest, want[j].YTest)
		}
		for i := range want[j].Dist {
			if got[j].Dist[i] != want[j].Dist[i] {
				t.Fatalf("test point %d dist[%d] mismatch", j, i)
			}
		}
		if math.Abs(got[j].Y[0]-want[j].Y[0]) != 0 {
			t.Fatalf("test point %d targets differ", j)
		}
	}
}

func TestStreamValidation(t *testing.T) {
	train := dataset.MNISTLike(20, 31)
	test := dataset.MNISTLike(5, 32)
	if _, err := NewStream(UnweightedClass, 0, nil, vec.L2, train, test); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewStream(WeightedClass, 2, nil, vec.L2, train, test); err == nil {
		t.Error("weighted kind without weight accepted")
	}
	reg := dataset.Regression(dataset.RegressionConfig{Name: "r", N: 5, Dim: train.Dim(), Seed: 3})
	if _, err := NewStream(UnweightedClass, 2, nil, vec.L2, train, reg); err == nil {
		t.Error("kind/response mismatch accepted")
	}
	narrow := dataset.Mixture(dataset.MixtureConfig{Name: "m", N: 5, Dim: 3, Classes: 2, Separation: 1, Spread: 1, Seed: 4})
	if _, err := NewStream(UnweightedClass, 2, nil, vec.L2, train, narrow); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestStreamReset(t *testing.T) {
	train := dataset.MNISTLike(30, 41)
	test := dataset.MNISTLike(7, 42)
	s, err := NewStream(UnweightedClass, 2, nil, vec.L2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	first := collect(t, s, 3)
	s.Reset()
	second := collect(t, s, 3)
	assertSameTestPoints(t, second, first)
	if s.NumTest() != 7 || s.NumTrain() != 30 {
		t.Fatalf("NumTest/NumTrain = %d/%d", s.NumTest(), s.NumTrain())
	}
}

// reversed returns d's rows in reverse order as a non-contiguous dataset.
func reversed(d *dataset.Dataset) *dataset.Dataset {
	idx := make([]int, d.N())
	for i := range idx {
		idx[i] = d.N() - 1 - i
	}
	r := d.Subset(idx)
	r.Classes = d.Classes
	return r
}

// The parallel, panelled scan must not change a bit: for every worker
// count, training size around the panel and parallel thresholds, batch
// size, precision, Euclidean metric and storage layout, each distance and
// correctness flag equals the single-goroutine stream's, and the Float64
// distances equal the vec.SqL2NormDot row scan.
func TestStreamScanBitIdenticalAcrossWorkers(t *testing.T) {
	const dim = 256
	panel := panelRows(dim)
	sizes := []int{1, panel - 1, panel + 1, 3*panel + 7, scanParallelPanels*panel + 37}
	const nTest = 16
	testFlat := dataset.Mixture(dataset.MixtureConfig{Name: "scan", N: nTest, Dim: dim, Classes: 3, Separation: 1, Spread: 1, Seed: 2})
	tests := []*dataset.Dataset{testFlat, reversed(testFlat)}
	for _, n := range sizes {
		trainFlat := dataset.Mixture(dataset.MixtureConfig{Name: "scan", N: n, Dim: dim, Classes: 3, Separation: 1, Spread: 1, Seed: 1})
		trains := []*dataset.Dataset{trainFlat}
		if n > 1 {
			trains = append(trains, reversed(trainFlat))
		}
		for _, train := range trains {
			_, trainIsFlat := train.Flat()
			for _, test := range tests {
				for _, prec := range []Precision{Float64, Float32} {
					for _, metric := range []vec.Metric{vec.L2, vec.SquaredL2} {
						pre := NewPrecomp(train, metric, prec)
						var want []*TestPoint
						for _, workers := range []int{1, 2, 3, 7} {
							for _, b := range []int{1, 3, 4, 5, 16} {
								s, err := NewStreamPre(UnweightedClass, 3, nil, metric, train, test, pre)
								if err != nil {
									t.Fatal(err)
								}
								s.SetWorkers(workers)
								got := collect(t, s, b)
								if want == nil {
									want = got
									continue
								}
								if msg := diffTestPoints(got, want); msg != "" {
									t.Fatalf("n=%d flatTrain=%v %v %v workers=%d batch=%d vs workers=1: %s", n, trainIsFlat, prec, metric, workers, b, msg)
								}
							}
						}
						if prec == Float32 && trainIsFlat {
							continue
						}
						for j, tp := range want {
							q := test.X[j]
							qn := vec.SqNorm(q)
							for r, row := range train.X {
								d := vec.SqL2NormDot(row, q, vec.SqNorm(row), qn)
								if metric == vec.L2 {
									d = math.Sqrt(d)
								}
								if tp.Dist[r] != d {
									t.Fatalf("n=%d %v: dist[%d][%d] = %v, want row scan %v", n, metric, j, r, tp.Dist[r], d)
								}
								if tp.Correct[r] != (train.Labels[r] == test.Labels[j]) {
									t.Fatalf("n=%d: correct[%d][%d] wrong", n, j, r)
								}
							}
						}
					}
				}
			}
		}
	}
}

// One batch of 16 queries over 1e5 training rows (dim 64): the scan
// valuations run, on one goroutine and at the default worker count.
func BenchmarkStreamNextBatch(b *testing.B) {
	train := dataset.MNISTLike(100000, 1)
	test := dataset.MNISTLike(16, 2)
	pre := NewPrecomp(train, vec.L2, Float64)
	dst := make([]*TestPoint, test.N())
	for _, workers := range []int{1, 0} {
		name := "workers=default"
		if workers == 1 {
			name = "workers=1"
		}
		b.Run(name, func(b *testing.B) {
			s, err := NewStreamPre(UnweightedClass, 3, nil, vec.L2, train, test, pre)
			if err != nil {
				b.Fatal(err)
			}
			s.SetWorkers(workers)
			for b.Loop() {
				s.Reset()
				if _, err := s.NextBatch(context.Background(), dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
