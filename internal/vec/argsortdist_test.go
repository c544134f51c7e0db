package vec

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// refArgsort is the specification: a stable comparison sort ascending by
// value (ties keep ascending index), with the same key transform for
// exotic floats (−0 equals +0, NaN after +Inf).
func refArgsort(dist []float64) []int {
	idx := make([]int, len(dist))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return DistKeyBits(dist[idx[a]]) < DistKeyBits(dist[idx[b]])
	})
	return idx
}

func checkArgsort(t *testing.T, dist []float64, got []int) {
	t.Helper()
	want := refArgsort(dist)
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d: idx[%d] = %d (dist %v), want %d (dist %v)",
				len(dist), i, got[i], dist[got[i]], want[i], dist[want[i]])
		}
	}
}

// Sizes straddle radixMinN so both the insertion and the bucket path run,
// and step across the sizes where the index field of a packed word,
// bits.Len(n-1) wide, grows.
func TestArgsortDistIntoMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 1))
	for _, n := range []int{0, 1, 2, 3, 7, radixMinN - 1, radixMinN, radixMinN + 1, 200, 1000,
		1 << 16, 1<<16 + 1, 1 << 17} {
		dist := make([]float64, n)
		for i := range dist {
			dist[i] = rng.NormFloat64() * 100
		}
		checkArgsort(t, dist, ArgsortDistInto(nil, dist))
	}
}

// A worker-owned DistSorter must produce the exact ordering of the pooled
// entry point, including across reuses: stale words, histogram counts and
// pending buckets of an earlier sort, larger or smaller and of another
// shape (spread out, heavy ties, one zero among wide values), must not
// leak into the next.
func TestDistSorterMatchesArgsortDistInto(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 9))
	var ds DistSorter
	var buf []int
	for round, n := range []int{1000, 3, radixMinN, 0, 500, 1000, 70000, 100, 70000, 5000} {
		dist := make([]float64, n)
		for i := range dist {
			switch round % 3 {
			case 0:
				dist[i] = rng.NormFloat64() * 100
			case 1:
				dist[i] = float64(rng.IntN(7))
			default:
				dist[i] = rng.NormFloat64() * 1e6
			}
		}
		if n > 0 {
			dist[rng.IntN(n)] = 0
		}
		want := ArgsortDistInto(nil, dist)
		buf = ds.ArgsortInto(buf, dist)
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("n=%d: idx[%d] = %d, want %d", n, i, buf[i], want[i])
			}
		}
		checkArgsort(t, dist, buf)
	}
}

// Heavy ties: equal keys must come out in ascending index order (the
// α-ordering tie rule of Theorem 1) — with four distinct values, so that
// at n=5000 over a thousand ties share one bucket, and with one value, so
// that every key is equal.
func TestArgsortDistIntoTies(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 2))
	for _, distinct := range []int{4, 1} {
		for _, n := range []int{5, radixMinN, 500, 5000} {
			dist := make([]float64, n)
			for i := range dist {
				dist[i] = float64(rng.IntN(distinct))
			}
			checkArgsort(t, dist, ArgsortDistInto(nil, dist))
		}
	}
}

// Exotic floats: ±0 must compare equal (index decides), negatives sort
// before positives, NaN after +Inf — on both the bucket and the insertion
// path.
func TestArgsortDistIntoExoticFloats(t *testing.T) {
	base := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1),
		math.NaN(), 1e-300, -1e-300, math.MaxFloat64, -math.MaxFloat64, 2, 0,
	}
	small := append([]float64(nil), base...)
	checkArgsort(t, small, ArgsortDistInto(nil, small))
	big := make([]float64, 0, 26*len(base))
	for i := 0; i < 26; i++ {
		big = append(big, base...)
	}
	checkArgsort(t, big, ArgsortDistInto(nil, big))
}

func TestArgsortDistIntoReusesBuffer(t *testing.T) {
	dist := []float64{3, 1, 2}
	buf := make([]int, 0, 8)
	got := ArgsortDistInto(buf, dist)
	if &got[0] != &buf[:1][0] {
		t.Fatal("buffer not reused")
	}
	again := ArgsortDistInto(got, dist)
	if &again[0] != &got[0] {
		t.Fatal("buffer not reused on second call")
	}
}

// FuzzArgsortDist feeds arbitrary byte-derived float64s (including NaN
// payloads, infinities and denormals) through both sort paths.
func FuzzArgsortDist(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, false)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 255}, true)
	f.Fuzz(func(t *testing.T, raw []byte, grow bool) {
		n := len(raw) / 8
		if n == 0 {
			return
		}
		dist := make([]float64, 0, n*9)
		for i := 0; i < n; i++ {
			var bits uint64
			for j := 0; j < 8; j++ {
				bits = bits<<8 | uint64(raw[i*8+j])
			}
			dist = append(dist, math.Float64frombits(bits))
		}
		if grow {
			// Replicate past radixMinN so the bucket path runs too.
			for len(dist) < radixMinN+1 {
				dist = append(dist, dist...)
			}
		}
		checkArgsort(t, dist, ArgsortDistInto(nil, dist))
		// Raw bytes mostly decode to mixed-sign, huge or NaN keys, whose
		// first bucket pass spreads everything thin. The magnitudes, and
		// their fractions packed into [1,2), share leading key bits, so
		// buckets fill up and the later passes run as well.
		abs := make([]float64, len(dist))
		dense := make([]float64, len(dist))
		for i, v := range dist {
			abs[i] = math.Abs(v)
			_, frac := math.Modf(abs[i])
			dense[i] = 1 + frac
		}
		checkArgsort(t, abs, ArgsortDistInto(nil, abs))
		checkArgsort(t, dense, ArgsortDistInto(nil, dense))
	})
}

// mixtureDist returns the L2 distances from one query to n rows, all drawn
// from a 10-class Gaussian mixture in 64 dimensions (class means on a
// sphere of radius 0.6, per-coordinate noise 1/8) — the MNIST-like inputs
// of the benchmark workloads. The distances crowd around √2 and straddle
// the binade at 1.0, so the sorted keys share only their top bits.
func mixtureDist(n int, seed uint64) []float64 {
	const dim, classes = 64, 10
	rng := rand.New(rand.NewPCG(seed, 77))
	means := make([][]float64, classes)
	for c := range means {
		m := make([]float64, dim)
		var norm float64
		for j := range m {
			m[j] = rng.NormFloat64()
			norm += m[j] * m[j]
		}
		for j := range m {
			m[j] *= 0.6 / math.Sqrt(norm)
		}
		means[c] = m
	}
	draw := func(row []float64) {
		mu := means[rng.IntN(classes)]
		for j := range row {
			row[j] = mu[j] + rng.NormFloat64()/8
		}
	}
	q, row := make([]float64, dim), make([]float64, dim)
	draw(q)
	dist := make([]float64, n)
	for i := range dist {
		draw(row)
		dist[i] = L2.Distance(row, q)
	}
	return dist
}

// The distances the exact workloads sort: MNIST-like L2 distances that
// straddle a binade; the same with one zero distance (a test point
// duplicating a training row), which stretches the key range over a
// thousand binades so that every real distance lands in a few first-pass
// buckets that need their own passes; and with several zeros plus a 1e300
// outlier, stretching the range further.
func TestArgsortDistMixture(t *testing.T) {
	const n = 100000
	dist := mixtureDist(n, 21)
	checkArgsort(t, dist, ArgsortDistInto(nil, dist))
	zero := append([]float64(nil), dist...)
	zero[n/3] = 0
	checkArgsort(t, zero, ArgsortDistInto(nil, zero))
	far := append([]float64(nil), dist...)
	for _, i := range []int{7, n / 2, n/2 + 1, n - 1} {
		far[i] = 0
	}
	far[n/4] = 1e300
	checkArgsort(t, far, ArgsortDistInto(nil, far))
}

// A warm DistSorter sorts without allocating, also when the input needs
// passes below the first (one zero distance among MNIST-like ones).
func TestDistSorterZeroAllocs(t *testing.T) {
	dist := mixtureDist(20000, 22)
	dist[5] = 0
	var ds DistSorter
	idx := make([]int, len(dist))
	if a := testing.AllocsPerRun(5, func() { ds.ArgsortInto(idx, dist) }); a != 0 {
		t.Fatalf("warm DistSorter allocates %v times per sort, want 0", a)
	}
	checkArgsort(t, dist, idx)
}

// Every NaN — math.NaN() and a computed one such as Inf-Inf, which carries
// the sign bit on amd64 — sorts after +Inf, NaN ties by index, on the
// insertion path and on the bucket path.
func TestArgsortDistNaNLast(t *testing.T) {
	inf := math.Inf(1)
	negNaN := math.Float64frombits(0xfff8000000000000)
	computed := inf - inf
	for _, nan := range []float64{math.NaN(), negNaN, computed} {
		if k := DistKeyBits(nan); k != math.MaxUint64 {
			t.Fatalf("DistKeyBits(%#x) = %#x, want the top key", math.Float64bits(nan), k)
		}
	}
	for _, n := range []int{8, radixMinN + 36} {
		dist := make([]float64, n)
		for i := range dist {
			dist[i] = float64(i % 5)
		}
		dist[1], dist[3], dist[n-2] = computed, negNaN, math.NaN()
		dist[2], dist[n-1] = inf, math.Inf(-1)
		got := ArgsortDistInto(nil, dist)
		checkArgsort(t, dist, got)
		if got[0] != n-1 {
			t.Fatalf("n=%d: first is %d (dist %v), want -Inf at %d", n, got[0], dist[got[0]], n-1)
		}
		want := []int{2, 1, 3, n - 2} // +Inf, then the NaNs by index
		for r, i := range got[n-4:] {
			if i != want[r] {
				t.Fatalf("n=%d: tail %v, want %v", n, got[n-4:], want)
			}
		}
	}
}
