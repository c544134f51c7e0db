package vec

import (
	"math/rand/v2"
	"testing"
)

// The storage benchmarks pin the flat row-major win: one query scanned
// against N train rows held either as a contiguous row-major buffer or as a
// slice of independently-allocated rows, plus the norm-precompute GEMV
// kernel that the streaming engine uses and the bucket argsort. Run with:
//
//	go test ./internal/vec -bench 'Scan|NormDot|Argsort' -benchmem
var benchShapes = []struct {
	name   string
	n, dim int
}{
	{"n1000_d32", 1000, 32},
	{"n10000_d64", 10000, 64},
}

// scatteredRows allocates each row separately (the seed's [][]float64
// layout), defeating the contiguity a flat scan enjoys.
func scatteredRows(n, dim int, rng *rand.Rand) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

func BenchmarkDistanceScanSlices(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, 1))
			rows := scatteredRows(shape.n, shape.dim, rng)
			q := make([]float64, shape.dim)
			out := make([]float64, shape.n)
			b.SetBytes(int64(shape.n * shape.dim * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Distances(SquaredL2, rows, q, out)
			}
		})
	}
}

func BenchmarkDistanceScanFlat(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, 1))
			flat, _ := randomFlat(shape.n, shape.dim, rng)
			q := make([]float64, shape.dim)
			out := make([]float64, shape.n)
			b.SetBytes(int64(shape.n * shape.dim * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DistancesFlat(SquaredL2, flat, shape.n, shape.dim, q, out)
			}
		})
	}
}

// BenchmarkSqL2NormDotBatch measures the GEMV-shaped norm-precompute
// kernel at the engine's default batch size: 64 queries against the train
// matrix per call, float64 and float32 storage.
func BenchmarkSqL2NormDotBatch(b *testing.B) {
	const batch = 64
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(2, 2))
			trainFlat, _ := randomFlat(shape.n, shape.dim, rng)
			testFlat, _ := randomFlat(batch, shape.dim, rng)
			norms := SqNorms(nil, trainFlat, shape.n, shape.dim)
			dst := make([]float64, batch*shape.n)
			b.SetBytes(int64(batch * shape.n * shape.dim * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SqL2NormDotBatch(dst, trainFlat, shape.n, shape.dim, norms, testFlat, batch, 0, shape.n)
			}
		})
	}
}

func BenchmarkSqL2NormDotBatch32(b *testing.B) {
	const batch = 64
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(2, 2))
			trainFlat, _ := randomFlat(shape.n, shape.dim, rng)
			testFlat, _ := randomFlat(batch, shape.dim, rng)
			trainFlat32 := ToFloat32(nil, trainFlat)
			testFlat32 := ToFloat32(nil, testFlat)
			norms32 := SqNorms32(nil, trainFlat32, shape.n, shape.dim)
			dst := make([]float64, batch*shape.n)
			b.SetBytes(int64(batch * shape.n * shape.dim * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SqL2NormDotBatch32(dst, trainFlat32, shape.n, shape.dim, norms32, testFlat32, batch, 0, shape.n)
			}
		})
	}
}

// BenchmarkArgsortDist measures ArgsortDistInto, one full α ordering per
// op: on uniform [0,20) keys at the benchShapes sizes, and at N=1e5 on
// MNIST-like L2 distances (mixtureDist) — as drawn, and with one zero
// distance (a test point duplicating a training row), which stretches the
// key range over a thousand binades and crowds every real distance into a
// few first-pass buckets.
func BenchmarkArgsortDist(b *testing.B) {
	run := func(b *testing.B, dist []float64) {
		idx := make([]int, len(dist))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ArgsortDistInto(idx, dist)
		}
	}
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(3, 3))
			dist := make([]float64, shape.n)
			for i := range dist {
				dist[i] = rng.Float64() * 20
			}
			run(b, dist)
		})
	}
	mixture := mixtureDist(100000, 3)
	b.Run("mixture_n100000", func(b *testing.B) { run(b, mixture) })
	withZero := append([]float64(nil), mixture...)
	withZero[len(withZero)/2] = 0
	b.Run("mixture_zero_n100000", func(b *testing.B) { run(b, withZero) })
}
