//go:build amd64

package vec

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The AVX and SSE2 float32 bodies implement the same 8-lane summation
// tree and must agree bit for bit on every length (loop, tail, and
// empty cases) — otherwise results would depend on which machine ran
// the valuation.
func TestDot32AVXMatchesSSE(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this machine")
	}
	rng := rand.New(rand.NewPCG(96, 8))
	for n := 0; n <= 70; n++ {
		a := make([]float32, n)
		qs := make([][]float32, 4)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
		}
		for j := range qs {
			qs[j] = make([]float32, n)
			for i := range qs[j] {
				qs[j][i] = float32(rng.NormFloat64())
			}
		}
		for j := range qs {
			if got, want := dot1x32avx(a, qs[j]), dot1x32sse(a, qs[j]); got != want {
				t.Fatalf("dot1x32 n=%d q%d: avx %v != sse %v", n, j, got, want)
			}
		}
		var outAVX, outSSE [4]float32
		dot4x32avx(a, qs[0], qs[1], qs[2], qs[3], &outAVX)
		dot4x32sse(a, qs[0], qs[1], qs[2], qs[3], &outSSE)
		if outAVX != outSSE {
			t.Fatalf("dot4x32 n=%d: avx %v != sse %v", n, outAVX, outSSE)
		}
		for j := range qs {
			if want := dotTreeGo32(a, qs[j]); outAVX[j] != want {
				t.Fatalf("dot4x32avx n=%d slot %d: %v, want tree %v", n, j, outAVX[j], want)
			}
		}
	}
}

// Raw kernel-body throughput, isolating the asm from the batch loop's
// per-row overhead (slice headers, norm arithmetic, stores).
func BenchmarkDot4x32Bodies(b *testing.B) {
	const n, dim = 10000, 64
	rng := rand.New(rand.NewPCG(97, 9))
	flat := make([]float32, n*dim)
	for i := range flat {
		flat[i] = float32(rng.NormFloat64())
	}
	q := make([][]float32, 4)
	for j := range q {
		q[j] = make([]float32, dim)
		for i := range q[j] {
			q[j][i] = float32(rng.NormFloat64())
		}
	}
	var out [4]float32
	b.Run("sse", func(b *testing.B) {
		b.SetBytes(int64(n * dim * 4))
		for i := 0; i < b.N; i++ {
			for r := 0; r < n; r++ {
				dot4x32sse(flat[r*dim:(r+1)*dim], q[0], q[1], q[2], q[3], &out)
			}
		}
	})
	b.Run("avx", func(b *testing.B) {
		if !useAVX {
			b.Skip("no AVX")
		}
		b.SetBytes(int64(n * dim * 4))
		for i := 0; i < b.N; i++ {
			for r := 0; r < n; r++ {
				dot4x32avx(flat[r*dim:(r+1)*dim], q[0], q[1], q[2], q[3], &out)
			}
		}
	})
}

// The assembly group sweeps must reproduce the portable group body bit
// for bit on every shape — including scalar tails (dim % 8), dims below
// one chunk, single rows, negative-identity clamps, and non-finite
// inputs (Inf rows make v = Inf - Inf = NaN, which the clamp must
// preserve, not zero). Each shape is also swept as a panel written inside
// a wider tile (stride > n, starting mid-row): the panel must equal the
// back-to-back result, and canaries outside its columns stay untouched.
func TestGemv4x32MatchesGo(t *testing.T) {
	type gemv func(dst4 []float64, n, stride int, flat []float32, dim int, norms []float32, q0, q1, q2, q3 []float32, qn *[4]float32)
	rng := rand.New(rand.NewPCG(98, 10))
	kernels := []struct {
		name string
		f    gemv
	}{{"go", sqL2Gemv4x32Go}, {"sse", gemv4x32sse}}
	if useAVX {
		kernels = append(kernels, struct {
			name string
			f    gemv
		}{"avx", gemv4x32avx})
	}
	const canary = -7.25
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {7, 8}, {13, 9}, {64, 17}, {31, 64}, {200, 23}} {
		n, dim := shape[0], shape[1]
		flat := make([]float32, n*dim)
		for i := range flat {
			flat[i] = float32(rng.NormFloat64())
		}
		// A duplicated row forces v == 0 through the clamp path.
		qs := make([][]float32, 4)
		for j := range qs {
			qs[j] = make([]float32, dim)
			for i := range qs[j] {
				qs[j][i] = float32(rng.NormFloat64())
			}
		}
		copy(flat[:dim], qs[0])
		if n > 2 {
			flat[dim] = float32(inf(1)) // row 1 → NaN distances
		}
		norms := SqNorms32(nil, flat, n, dim)
		qn := [4]float32{SqNorm32(qs[0]), SqNorm32(qs[1]), SqNorm32(qs[2]), SqNorm32(qs[3])}
		want := make([]float64, 4*n)
		sqL2Gemv4x32Go(want, n, n, flat, dim, norms, qs[0], qs[1], qs[2], qs[3], &qn)
		for _, k := range kernels {
			got := make([]float64, 4*n)
			k.f(got, n, n, flat, dim, norms, qs[0], qs[1], qs[2], qs[3], &qn)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s n=%d dim=%d: dst4[%d] = %v, want %v", k.name, n, dim, i, got[i], want[i])
				}
			}
			// The same panel at columns [off, off+n) of a 4×stride tile.
			const off = 3
			stride := n + 2*off + 1
			tile := make([]float64, 4*stride)
			for i := range tile {
				tile[i] = canary
			}
			k.f(tile[off:3*stride+off+n], n, stride, flat, dim, norms, qs[0], qs[1], qs[2], qs[3], &qn)
			for j := 0; j < 4; j++ {
				for c := 0; c < stride; c++ {
					got := tile[j*stride+c]
					if c < off || c >= off+n {
						if got != canary {
							t.Fatalf("%s n=%d dim=%d stride=%d: query %d column %d outside the panel overwritten with %v", k.name, n, dim, stride, j, c, got)
						}
						continue
					}
					if w := want[j*n+c-off]; !sameBits(got, w) {
						t.Fatalf("%s n=%d dim=%d stride=%d: query %d column %d = %v, want %v", k.name, n, dim, stride, j, c, got, w)
					}
				}
			}
		}
	}
}

// sameBits reports whether two distances are equal, counting NaN == NaN.
func sameBits(a, b float64) bool { return a == b || (isNaN64(a) && isNaN64(b)) }

func inf(sign int) float64   { return math.Inf(sign) }
func isNaN64(v float64) bool { return v != v }
