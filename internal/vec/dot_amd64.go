//go:build amd64

package vec

// The dot-product kernels of dot_amd64.s. Contracts:
//   - dot1x64/dot1x32: len(b) >= len(a); returns the (a·b) over len(a)
//     elements with the summation tree documented in dot_amd64.s.
//   - dot4x64/dot4x32: len(q0..q3) >= len(row); out[j] = row·qj, each
//     accumulated with exactly the dot1 tree, so grouping queries four at
//     a time changes no bits versus one-at-a-time evaluation.
//
// The float32 kernels have an SSE2 body (works on every amd64) and an
// AVX body (one 8-lane ymm accumulator per query — the same summation
// tree, twice the width). useAVX picks once at startup; both bodies are
// bit-identical, so the choice is invisible to callers.

// useAVX reports whether the 256-bit float32 kernels are usable on this
// machine (CPU advertises AVX and the OS saves ymm state).
var useAVX = cpuHasAVX()

func cpuHasAVX() bool

func dot1x32(a, b []float32) float32 {
	if useAVX {
		return dot1x32avx(a, b)
	}
	return dot1x32sse(a, b)
}

func dot4x32(row, q0, q1, q2, q3 []float32, out *[4]float32) {
	if useAVX {
		dot4x32avx(row, q0, q1, q2, q3, out)
		return
	}
	dot4x32sse(row, q0, q1, q2, q3, out)
}

// sqL2Gemv4x32 runs one four-query distance group — every row's dots,
// norms arithmetic, clamp, and float64 widening — as a single assembly
// sweep, eliminating the per-row call and slicing overhead of the
// portable loop. Query j's distances land at dst4[j*stride:], so one call
// fills a row panel of a wider tile. Bit-identical to sqL2Gemv4x32Go.
func sqL2Gemv4x32(dst4 []float64, n, stride int, flat []float32, dim int, norms []float32, q0, q1, q2, q3 []float32, qn *[4]float32) {
	if useAVX {
		gemv4x32avx(dst4, n, stride, flat, dim, norms, q0, q1, q2, q3, qn)
		return
	}
	gemv4x32sse(dst4, n, stride, flat, dim, norms, q0, q1, q2, q3, qn)
}

//go:noescape
func dot1x64(a, b []float64) float64

//go:noescape
func dot4x64(row, q0, q1, q2, q3 []float64, out *[4]float64)

//go:noescape
func dot1x32sse(a, b []float32) float32

//go:noescape
func dot1x32avx(a, b []float32) float32

//go:noescape
func dot4x32sse(row, q0, q1, q2, q3 []float32, out *[4]float32)

//go:noescape
func dot4x32avx(row, q0, q1, q2, q3 []float32, out *[4]float32)

//go:noescape
func gemv4x32sse(dst4 []float64, n, stride int, flat []float32, dim int, norms []float32, q0, q1, q2, q3 []float32, qn *[4]float32)

//go:noescape
func gemv4x32avx(dst4 []float64, n, stride int, flat []float32, dim int, norms []float32, q0, q1, q2, q3 []float32, qn *[4]float32)
