package vec

import (
	"math"
	"math/rand/v2"
	"testing"
)

func randomFlat(n, dim int, rng *rand.Rand) ([]float64, [][]float64) {
	flat := make([]float64, n*dim)
	rows := make([][]float64, n)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	for i := range rows {
		rows[i] = flat[i*dim : (i+1)*dim]
	}
	return flat, rows
}

// The norm-precompute batch kernel must agree with the definitional
// row-at-a-time scan to within the rounding of the reassociated identity
// ‖a‖²+‖q‖²−2a·q, and must never go negative.
func TestSqL2NormDotBatchMatchesRowScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 1))
	for _, shape := range [][3]int{{1, 1, 1}, {3, 7, 5}, {8, 64, 9}, {5, 130, 17}, {2, 200, 3}, {9, 65, 8}} {
		nTest, nTrain, dim := shape[0], shape[1], shape[2]
		trainFlat, trainRows := randomFlat(nTrain, dim, rng)
		testFlat, testRows := randomFlat(nTest, dim, rng)
		norms := SqNorms(nil, trainFlat, nTrain, dim)
		dst := SqL2NormDotBatch(nil, trainFlat, nTrain, dim, norms, testFlat, nTest, 0, nTrain)
		for i := 0; i < nTest; i++ {
			for j := 0; j < nTrain; j++ {
				want := SqL2(trainRows[j], testRows[i])
				got := dst[i*nTrain+j]
				scale := want
				if scale < 1 {
					scale = 1
				}
				if got < 0 || math.Abs(got-want) > 1e-9*scale {
					t.Fatalf("shape %v: dst[%d,%d] = %v, want %v", shape, i, j, got, want)
				}
			}
		}
	}
}

// A query's distances must not depend on how queries were grouped into
// batches: every prefix/suffix split of the query block reproduces the
// full batch bit for bit. This is what keeps valuations invariant under
// WithBatchSize.
func TestSqL2NormDotBatchGroupingInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(92, 2))
	const nTrain, dim, nTest = 37, 19, 11
	trainFlat, _ := randomFlat(nTrain, dim, rng)
	testFlat, _ := randomFlat(nTest, dim, rng)
	norms := SqNorms(nil, trainFlat, nTrain, dim)
	norms32 := SqNorms32(nil, ToFloat32(nil, trainFlat), nTrain, dim)
	trainFlat32 := ToFloat32(nil, trainFlat)
	testFlat32 := ToFloat32(nil, testFlat)
	want := SqL2NormDotBatch(nil, trainFlat, nTrain, dim, norms, testFlat, nTest, 0, nTrain)
	want32 := SqL2NormDotBatch32(nil, trainFlat32, nTrain, dim, norms32, testFlat32, nTest, 0, nTrain)
	for split := 1; split < nTest; split++ {
		a := SqL2NormDotBatch(nil, trainFlat, nTrain, dim, norms, testFlat[:split*dim], split, 0, nTrain)
		b := SqL2NormDotBatch(nil, trainFlat, nTrain, dim, norms, testFlat[split*dim:], nTest-split, 0, nTrain)
		got := append(a, b...)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("split %d: dst[%d] = %v, want %v (batch grouping changed bits)", split, i, got[i], want[i])
			}
		}
		a32 := SqL2NormDotBatch32(nil, trainFlat32, nTrain, dim, norms32, testFlat32[:split*dim], split, 0, nTrain)
		b32 := SqL2NormDotBatch32(nil, trainFlat32, nTrain, dim, norms32, testFlat32[split*dim:], nTest-split, 0, nTrain)
		got32 := append(a32, b32...)
		for i := range want32 {
			if got32[i] != want32[i] {
				t.Fatalf("split %d: float32 dst[%d] = %v, want %v", split, i, got32[i], want32[i])
			}
		}
	}
	// Row ranges: filling [0,cut) and [cut,n) of one tile reproduces the
	// whole-matrix scan, which is what lets a scan split the training rows
	// into panels and across goroutines.
	for cut := 0; cut <= nTrain; cut += 4 {
		got := SqL2NormDotBatch(nil, trainFlat, nTrain, dim, norms, testFlat, nTest, 0, cut)
		SqL2NormDotBatch(got, trainFlat, nTrain, dim, norms, testFlat, nTest, cut, nTrain)
		got32 := SqL2NormDotBatch32(nil, trainFlat32, nTrain, dim, norms32, testFlat32, nTest, cut, nTrain)
		SqL2NormDotBatch32(got32, trainFlat32, nTrain, dim, norms32, testFlat32, nTest, 0, cut)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row cut %d: dst[%d] = %v, want %v", cut, i, got[i], want[i])
			}
			if got32[i] != want32[i] {
				t.Fatalf("row cut %d: float32 dst[%d] = %v, want %v", cut, i, got32[i], want32[i])
			}
		}
	}
}

// The float32 kernel must track the float64 scan within single-precision
// rounding: relative error of order dim·2⁻²⁴ on well-scaled data.
func TestSqL2NormDotBatch32Tolerance(t *testing.T) {
	rng := rand.New(rand.NewPCG(93, 5))
	const nTrain, dim, nTest = 64, 48, 8
	trainFlat, _ := randomFlat(nTrain, dim, rng)
	testFlat, _ := randomFlat(nTest, dim, rng)
	norms := SqNorms(nil, trainFlat, nTrain, dim)
	want := SqL2NormDotBatch(nil, trainFlat, nTrain, dim, norms, testFlat, nTest, 0, nTrain)
	trainFlat32 := ToFloat32(nil, trainFlat)
	testFlat32 := ToFloat32(nil, testFlat)
	norms32 := SqNorms32(nil, trainFlat32, nTrain, dim)
	got := SqL2NormDotBatch32(nil, trainFlat32, nTrain, dim, norms32, testFlat32, nTest, 0, nTrain)
	for i := range want {
		scale := want[i]
		if scale < 1 {
			scale = 1
		}
		if math.Abs(got[i]-want[i]) > 1e-4*scale {
			t.Fatalf("dst[%d] = %v, want %v (float32 drift too large)", i, got[i], want[i])
		}
	}
}

// The assembly kernels (on amd64) and the portable fallbacks must both
// realize the documented summation tree exactly — this is the contract
// that makes distances identical across platforms and query groupings.
func TestDotKernelsMatchGoTree(t *testing.T) {
	rng := rand.New(rand.NewPCG(94, 6))
	for n := 0; n <= 70; n++ {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		if got, want := dot1x64(a, b), dotTreeGo64(a, b); got != want {
			t.Fatalf("dot1x64 n=%d: %v != %v", n, got, want)
		}
		a32 := ToFloat32(nil, a)
		b32 := ToFloat32(nil, b)
		if got, want := dot1x32(a32, b32), dotTreeGo32(a32, b32); got != want {
			t.Fatalf("dot1x32 n=%d: %v != %v", n, got, want)
		}
		var out [4]float64
		dot4x64(a, b, b, b, b, &out)
		if want := dotTreeGo64(a, b); out[0] != want || out[1] != want || out[2] != want || out[3] != want {
			t.Fatalf("dot4x64 n=%d: %v, want all %v", n, out, want)
		}
		var out32 [4]float32
		dot4x32(a32, b32, b32, b32, b32, &out32)
		if want := dotTreeGo32(a32, b32); out32[0] != want || out32[1] != want || out32[2] != want || out32[3] != want {
			t.Fatalf("dot4x32 n=%d: %v, want all %v", n, out32, want)
		}
	}
}

// Distinct queries through dot4 must land in their own slots.
func TestDot4DistinctQueries(t *testing.T) {
	rng := rand.New(rand.NewPCG(95, 7))
	const n = 23
	row := make([]float64, n)
	qs := make([][]float64, 4)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	for j := range qs {
		qs[j] = make([]float64, n)
		for i := range qs[j] {
			qs[j][i] = rng.NormFloat64()
		}
	}
	var out [4]float64
	dot4x64(row, qs[0], qs[1], qs[2], qs[3], &out)
	for j := range qs {
		if want := dotTreeGo64(row, qs[j]); out[j] != want {
			t.Fatalf("dot4x64 slot %d: %v, want %v", j, out[j], want)
		}
	}
}

func TestDistancesFlatMatchesDistances(t *testing.T) {
	rng := rand.New(rand.NewPCG(93, 3))
	flat, rows := randomFlat(12, 6, rng)
	q := make([]float64, 6)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	for _, m := range []Metric{L2, SquaredL2, L1, Cosine} {
		want := Distances(m, rows, q, nil)
		got := DistancesFlat(m, flat, 12, 6, q, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("metric %v: dist[%d] = %v, want %v", m, i, got[i], want[i])
			}
		}
	}
}

func TestArgsortByIntoMatchesArgsortBy(t *testing.T) {
	rng := rand.New(rand.NewPCG(94, 4))
	keys := make([]float64, 200)
	for i := range keys {
		keys[i] = float64(rng.IntN(20)) // plenty of ties
	}
	key := func(i int) float64 { return keys[i] }
	want := ArgsortBy(len(keys), key)
	buf := make([]int, 0, len(keys))
	got := ArgsortByInto(buf, len(keys), key)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("idx[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Reuse: a second call must not reallocate.
	again := ArgsortByInto(got, len(keys), key)
	if &again[0] != &got[0] {
		t.Fatal("buffer not reused")
	}
}
