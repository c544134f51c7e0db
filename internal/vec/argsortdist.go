package vec

import (
	"math"
	"math/bits"
	"sync"
)

// ArgsortDistInto fills idx (reallocated only when too short) with
// 0..len(dist)-1 ordered ascending by (dist, index) — the α ordering of
// Theorem 1 — and returns it. It is the total-order primitive of the exact
// Shapley recursion and the hot half of the per-test-point cost, so it is
// a most-significant-digit bucket sort on the order-monotone bit pattern of
// each distance instead of a comparison sort. One pass finds the key
// range, one counts the keys into about n buckets by their leading bits,
// and one scatters each element as a single packed uint64 word (the key's
// remaining bits above the index) into its bucket. Every bucket is then
// finished while it sits in cache: a few words by insertion sort, more by
// the same bucket pass over the words' own range. See distSortScratch.
//
// The ordering matches a stable comparison sort on the values exactly,
// for every float64 input: -0 and +0 compare equal and fall back to index
// order, and every NaN sorts after +Inf (NaN ties again by index). Small
// inputs (< radixMinN) use an insertion sort on the identical key
// transform, so the order never depends on input size. Inputs of 2^32 or
// more elements are not supported and panic.
func ArgsortDistInto(idx []int, dist []float64) []int {
	idx, done := argsortSmall(idx, dist)
	if done {
		return idx
	}
	s := distSortPool.Get().(*distSortScratch)
	s.sort(idx, dist)
	distSortPool.Put(s)
	return idx
}

// DistSorter is an owned bucket-sort scratch for the ArgsortDistInto
// ordering. Callers that sort on every test point (the engine's per-worker
// Scratch) hold one instead of using the package-level pool: the buffers
// then live exactly as long as the worker, with no cross-worker pool
// traffic — and no reallocation churn under the race detector, whose
// sync.Pool deliberately drops a fraction of Puts. A warm sorter allocates
// nothing per sort. The zero value is ready to use.
type DistSorter struct{ s distSortScratch }

// ArgsortInto is ArgsortDistInto using the sorter's owned scratch.
func (ds *DistSorter) ArgsortInto(idx []int, dist []float64) []int {
	idx, done := argsortSmall(idx, dist)
	if done {
		return idx
	}
	ds.s.sort(idx, dist)
	return idx
}

// argsortSmall resizes idx and handles the sub-radixMinN insertion-sort
// case shared by the pool and owned-scratch entry points; done reports
// whether the sort already happened.
func argsortSmall(idx []int, dist []float64) ([]int, bool) {
	n := len(dist)
	if cap(idx) < n {
		idx = make([]int, n)
	}
	idx = idx[:n]
	if n >= radixMinN {
		return idx, false
	}
	for i := range idx {
		idx[i] = i
	}
	insertionArgsortBits(idx, dist)
	return idx, true
}

// radixMinN is the input size below which the bucket machinery (range and
// histogram passes, scratch traffic) loses to a plain insertion sort.
const radixMinN = 64

// bucketLeafMax is the largest bucket finished by insertion sort; a larger
// one is split again by its own bucket pass.
const bucketLeafMax = 32

// DistKeyBits maps v onto bits whose unsigned order equals the (v, ties
// pending) comparison order for all floats: negative values flip entirely,
// non-negative values set the sign bit. Adding 0 first normalizes -0 to +0
// so the two zeros map to one key and ties resolve by index. Every NaN,
// whatever its sign bit or payload (an arithmetic NaN such as Inf-Inf
// carries the sign bit on amd64), maps to the largest key, so NaN sorts
// after +Inf. It is exported as the comparison key for anything that must
// reproduce this package's total order externally — the cluster
// coordinator's k-way neighbor merge orders shard-local lists by
// (DistKeyBits(dist), index) so the merged ranking equals a single
// ArgsortDistInto over the unsharded distances.
func DistKeyBits(v float64) uint64 {
	if v != v {
		return math.MaxUint64
	}
	b := math.Float64bits(v + 0)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// insertionArgsortBits sorts idx ascending by (DistKeyBits(dist[i]), i).
func insertionArgsortBits(idx []int, dist []float64) {
	for i := 1; i < len(idx); i++ {
		x := idx[i]
		kx := DistKeyBits(dist[x])
		j := i
		for ; j > 0; j-- {
			y := idx[j-1]
			ky := DistKeyBits(dist[y])
			if ky < kx || (ky == kx && y < x) {
				break
			}
			idx[j] = y
		}
		idx[j] = x
	}
}

// distSortScratch holds the bucket-sort buffers, reused across calls: the
// packed words, a second word buffer (the keys during the first pass, then
// the target of every later one), one histogram and the stack of buckets
// still to split. A sync.Pool amortizes them across calls and workers
// without threading a scratch parameter through OrderInto.
//
// With ib = bits.Len(n-1) index bits, the first pass maps key k onto
// bucket (k-lo)>>shift and word ((k-lo) mod 2^shift)<<ib | i, where
// shift = max(bits.Len64(hi-lo)-ib, 0). Then shift+ib never exceeds the
// bit length of hi-lo, so the word is exact for every input — mixed
// signs, NaN and ±Inf included — and within one bucket the word order is
// the (key, index) order: ties break by ascending index with no payload
// array. A later pass splits a bucket's words the same way over their own
// [lo, hi], moving them unchanged; each pass leaves its buckets a shorter
// bit span than its input, so the passes end. Each pass uses at most
// 2^ib < 2n histogram counters, so the scratch is 8+8+at most 8 bytes per
// element, plus a stack of at most n/(bucketLeafMax+1) pending buckets.
type distSortScratch struct {
	words, tmp []uint64
	hist       []uint32
	stack      []pendingBucket
}

// pendingBucket is a bucket of more than bucketLeafMax words awaiting its
// own pass: positions [start, end) of words, or of tmp when inTmp is set.
type pendingBucket struct {
	start, end uint32
	inTmp      bool
}

var distSortPool = sync.Pool{New: func() any { return new(distSortScratch) }}

func (s *distSortScratch) sort(idx []int, dist []float64) {
	n := len(dist)
	if uint64(n) > math.MaxUint32 {
		panic("vec: argsort of 2^32 or more elements")
	}
	if cap(s.words) < n {
		s.words = make([]uint64, n)
		s.tmp = make([]uint64, n)
	}
	keys, words := s.tmp[:n], s.words[:n]
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i, v := range dist {
		k := DistKeyBits(v)
		keys[i] = k
		lo = min(lo, k)
		hi = max(hi, k)
	}
	if lo == hi {
		for i := range idx {
			idx[i] = i
		}
		return
	}
	ib := uint(bits.Len(uint(n - 1)))
	if len(s.hist) < 1<<ib {
		s.hist = make([]uint32, 1<<ib)
	}
	shift := bucketShift(hi-lo, ib)
	hist := s.hist[:(hi-lo)>>shift+1]
	clear(hist)
	for _, k := range keys {
		hist[(k-lo)>>shift]++
	}
	exclusivePrefix(hist)
	low := uint64(1)<<shift - 1
	for i, k := range keys {
		d := k - lo
		b := d >> shift
		o := hist[b]
		hist[b] = o + 1
		words[o] = (d&low)<<ib | uint64(i)
	}

	// hist[b] is now the end of bucket b. Finish the small buckets, then
	// split the pending large ones until none is left.
	mask := uint64(1)<<ib - 1
	s.stack = s.stack[:0]
	s.finish(idx, words, hist, 0, false, mask)
	for len(s.stack) > 0 {
		p := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		src, dst := s.words, s.tmp
		if p.inTmp {
			src, dst = dst, src
		}
		a, e := int(p.start), int(p.end)
		s.split(idx, src[a:e], dst[a:e], a, !p.inTmp, mask)
	}
}

// split bucket-sorts the distinct words w, which sit at position base, by
// scattering them into out (inTmp tells finish which buffer out is).
func (s *distSortScratch) split(idx []int, w, out []uint64, base int, inTmp bool, mask uint64) {
	lo, hi := w[0], w[0]
	for _, x := range w[1:] {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	shift := bucketShift(hi-lo, uint(bits.Len(uint(len(w)-1))))
	hist := s.hist[:(hi-lo)>>shift+1]
	clear(hist)
	for _, x := range w {
		hist[(x-lo)>>shift]++
	}
	exclusivePrefix(hist)
	for _, x := range w {
		b := (x - lo) >> shift
		o := hist[b]
		hist[b] = o + 1
		out[o] = x
	}
	s.finish(idx, out, hist, base, inTmp, mask)
}

// finish walks the buckets of w, whose ends are in hist: it sorts each
// small bucket in place and pushes each large one onto the stack, then
// writes the indices of every run of small buckets to idx at base.
func (s *distSortScratch) finish(idx []int, w []uint64, hist []uint32, base int, inTmp bool, mask uint64) {
	run, start := 0, 0
	for _, h := range hist {
		end := int(h)
		if c := end - start; c > 1 {
			if c > bucketLeafMax {
				writeIndices(idx[base+run:base+start], w[run:start], mask)
				s.stack = append(s.stack, pendingBucket{uint32(base + start), uint32(base + end), inTmp})
				run = end
			} else {
				insertionSortWords(w[start:end])
			}
		}
		start = end
	}
	writeIndices(idx[base+run:base+start], w[run:start], mask)
}

// writeIndices stores the index field of each word.
func writeIndices(idx []int, w []uint64, mask uint64) {
	for r, x := range w {
		idx[r] = int(x & mask)
	}
}

// bucketShift returns the right shift that maps the offsets 0..span onto
// at most 2^b buckets, and onto one bucket per offset when span < 2^b.
func bucketShift(span uint64, b uint) uint {
	return uint(max(bits.Len64(span)-int(b), 0))
}

// exclusivePrefix turns counts into bucket start offsets.
func exclusivePrefix(hist []uint32) {
	var sum uint32
	for i, c := range hist {
		hist[i] = sum
		sum += c
	}
}

// insertionSortWords sorts a short run of words ascending.
func insertionSortWords(w []uint64) {
	for i := 1; i < len(w); i++ {
		x := w[i]
		j := i
		for ; j > 0 && w[j-1] > x; j-- {
			w[j] = w[j-1]
		}
		w[j] = x
	}
}
