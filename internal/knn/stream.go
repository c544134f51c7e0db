package knn

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"knnshapley/internal/dataset"
	"knnshapley/internal/vec"
)

// Stream is a batched producer of TestPoints: instead of eagerly
// materializing the full Ntest×N distance matrix the way BuildTestPoints
// does, it computes distances one batch of test rows at a time, reusing a
// single batch-sized tile of backing buffers. Peak memory is therefore
// bounded by BatchSize·N distances regardless of the test-set size.
//
// For the Euclidean metrics the tile is filled by the norm-precompute GEMV
// kernel vec.SqL2NormDotBatch: training-row squared norms are computed once
// (or taken from a shared Precomp, which may also hold a float32 copy of
// the training matrix), so each batch is a single dot sweep over the
// training matrix. Other metrics fall back to row-at-a-time distance scans.
//
// Each batch scan is parallel and cache-blocked. The training rows split
// into contiguous ranges, one per goroutine (at most SetWorkers of them,
// GOMAXPROCS by default; scans of a few panels stay on the calling
// goroutine). Each range is walked in L2-sized row panels, and every
// four-query group of the batch sweeps a panel before the next panel
// loads, so the matrix comes from memory once per batch. The L2 square
// root and the correctness flags are filled in the same panel pass, while
// the panel's values are still in cache. A distance depends only on its
// (row, query) pair, so the tile is bit-identical to BuildTestPoint's for
// every worker count, panel size and batch size.
//
// The TestPoints returned by NextBatch alias the Stream's internal buffers
// and are only valid until the next NextBatch call. Callers that need them
// to persist (e.g. BuildTestPoints) must copy.
type Stream struct {
	kind   Kind
	k      int
	weight WeightFunc
	metric vec.Metric
	train  *dataset.Dataset
	test   *dataset.Dataset
	pre    *Precomp

	next    int // next test row to produce
	workers int // scan goroutine bound (<= 0: GOMAXPROCS)

	// Flat fast-path state: non-nil when the respective dataset is
	// contiguous and the metric is Euclidean.
	trainFlat []float64
	testFlat  []float64

	// Reused batch tile: distBuf is batch·N distances, correctBuf batch·N
	// correctness indicators, tps the TestPoint headers themselves. qBuf
	// gathers non-contiguous query rows; q32 holds the float32 conversion
	// of the query batch in Float32 mode.
	distBuf    []float64
	correctBuf []bool
	tps        []TestPoint
	qBuf       []float64
	q32        []float32

	// The batch being scanned: its size and, on the flat path, its query
	// block (q32 holds the float32 copy in Float32 mode).
	batch int
	q     []float64
}

// NewStream validates the datasets exactly like BuildTestPoints and returns
// a Stream positioned at the first test row. The scan precomputation is
// built internally at Float64 precision; use NewStreamPre to share one
// Precomp (or select Float32) across streams.
func NewStream(kind Kind, k int, weight WeightFunc, metric vec.Metric,
	train, test *dataset.Dataset) (*Stream, error) {
	return NewStreamPre(kind, k, weight, metric, train, test, nil)
}

// NewStreamPre is NewStream with a caller-supplied scan precomputation,
// letting a session build norms (and the float32 training copy) once and
// reuse them across every stream. pre must have been built by NewPrecomp
// from the same train/metric; nil means build a Float64 one here.
func NewStreamPre(kind Kind, k int, weight WeightFunc, metric vec.Metric,
	train, test *dataset.Dataset, pre *Precomp) (*Stream, error) {

	if k <= 0 {
		return nil, fmt.Errorf("knn: K = %d, want positive", k)
	}
	if kind.IsWeighted() && weight == nil {
		return nil, fmt.Errorf("knn: weighted utility requires a WeightFunc")
	}
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("knn: train: %w", err)
	}
	if err := test.Validate(); err != nil {
		return nil, fmt.Errorf("knn: test: %w", err)
	}
	if kind.IsRegression() != train.IsRegression() || kind.IsRegression() != test.IsRegression() {
		return nil, fmt.Errorf("knn: utility kind %v incompatible with dataset responses", kind)
	}
	if train.Dim() != test.Dim() {
		return nil, fmt.Errorf("knn: train dim %d != test dim %d", train.Dim(), test.Dim())
	}
	s := &Stream{kind: kind, k: k, weight: weight, metric: metric, train: train, test: test, pre: pre}
	if metric == vec.L2 || metric == vec.SquaredL2 {
		if tf, ok := train.Flat(); ok {
			s.trainFlat = tf
		}
		if qf, ok := test.Flat(); ok {
			s.testFlat = qf
		}
		if s.pre == nil {
			s.pre = NewPrecomp(train, metric, Float64)
		}
	}
	return s, nil
}

// NumTest returns the total number of test points the stream will produce.
func (s *Stream) NumTest() int { return s.test.N() }

// NumTrain returns the training-set size (the length of each Dist vector).
func (s *Stream) NumTrain() int { return s.train.N() }

// Reset rewinds the stream to the first test row.
func (s *Stream) Reset() { s.next = 0 }

// SetWorkers bounds the goroutines one NextBatch distance scan may use;
// n <= 0 means GOMAXPROCS, the default. core.Engine calls it with its own
// worker count, so an engine's Workers setting bounds the scan too. The
// split never changes a distance.
func (s *Stream) SetWorkers(n int) { s.workers = n }

// NextBatch fills dst with up to len(dst) TestPoints for the next test rows
// and returns how many were produced; 0 means the stream is exhausted. The
// returned TestPoints reuse the Stream's buffers and are invalidated by the
// following NextBatch call. A canceled ctx aborts before the batch's
// distance tile is computed and returns ctx.Err().
func (s *Stream) NextBatch(ctx context.Context, dst []*TestPoint) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	b := len(dst)
	if remaining := s.test.N() - s.next; b > remaining {
		b = remaining
	}
	if b <= 0 {
		return 0, nil
	}
	n := s.train.N()
	if cap(s.distBuf) < b*n {
		s.distBuf = make([]float64, b*n)
	}
	s.distBuf = s.distBuf[:b*n]
	if !s.kind.IsRegression() {
		if cap(s.correctBuf) < b*n {
			s.correctBuf = make([]bool, b*n)
		}
		s.correctBuf = s.correctBuf[:b*n]
	}
	if cap(s.tps) < b {
		s.tps = make([]TestPoint, b)
	}
	s.tps = s.tps[:b]

	s.batch = b
	if s.pre != nil && s.trainFlat != nil {
		dim := s.train.Dim()
		s.q = s.queryBlock(b, dim)
		if s.pre.precision == Float32 {
			if cap(s.q32) < b*dim {
				s.q32 = make([]float32, b*dim)
			}
			s.q32 = vec.ToFloat32(s.q32[:0], s.q)
		}
	}
	s.scan()

	for i := 0; i < b; i++ {
		tp := &s.tps[i]
		*tp = TestPoint{Kind: s.kind, K: s.k, Weight: s.weight, Dist: s.distBuf[i*n : (i+1)*n]}
		if s.kind.IsRegression() {
			tp.Y = s.train.Targets
			tp.YTest = s.test.Targets[s.next+i]
		} else {
			tp.Correct = s.correctBuf[i*n : (i+1)*n]
		}
		dst[i] = tp
	}
	s.next += b
	return b, nil
}

// scanPanelBytes is the training-matrix footprint of one scan panel: every
// query group of a batch sweeps a panel while it sits in a core's L2
// cache, so the matrix streams from memory once per batch rather than once
// per four queries.
const scanPanelBytes = 256 << 10

// scanParallelPanels is the smallest scan, in panels, that is split
// across goroutines; smaller scans (the few-row delta scans of the serve
// path among them) run on the calling goroutine without allocating.
const scanParallelPanels = 4

// panelRows is the number of training rows in one scan panel.
func panelRows(dim int) int {
	return max(scanPanelBytes/(8*max(dim, 1)), 16)
}

// scanParts returns how many contiguous row ranges the batch scan of n
// training rows splits into: one per goroutine, at most workers (<= 0
// meaning GOMAXPROCS), and each at least a panel long.
func scanParts(n, dim, workers int) int {
	panel := panelRows(dim)
	if n < scanParallelPanels*panel {
		return 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n/panel)
}

// scan fills the current batch's distance and correctness tiles. The
// training rows split into scanParts contiguous ranges, one per goroutine
// (the calling goroutine takes the first), and each range is walked in
// panels. Every distance depends only on its (row, query) pair, so the
// tile is bit-identical for every split, panel size and batch size.
func (s *Stream) scan() {
	n := s.train.N()
	parts := scanParts(n, s.train.Dim(), s.workers)
	if parts == 1 {
		s.scanRows(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for p := 1; p < parts; p++ {
		go func(lo, hi int) {
			defer wg.Done()
			s.scanRows(lo, hi)
		}(p*n/parts, (p+1)*n/parts)
	}
	s.scanRows(0, n/parts)
	wg.Wait()
}

// scanRows fills training rows [lo,hi) of the batch tile panel by panel:
// each four-query group sweeps the panel, then its distances get the L2
// square root and its correctness flags are set while the panel's values
// are still in cache.
func (s *Stream) scanRows(lo, hi int) {
	n, dim, b := s.train.N(), s.train.Dim(), s.batch
	panel := panelRows(dim)
	for p := lo; p < hi; p += panel {
		pe := min(p+panel, hi)
		for qi := 0; qi < b; qi += 4 {
			g := min(4, b-qi)
			s.fillPanel(qi, g, p, pe)
			for i := qi; i < qi+g; i++ {
				if s.metric == vec.L2 {
					d := s.distBuf[i*n+p : i*n+pe]
					for t, v := range d {
						d[t] = math.Sqrt(v)
					}
				}
				if !s.kind.IsRegression() {
					c := s.correctBuf[i*n+p : i*n+pe]
					label := s.test.Labels[s.next+i]
					for t, y := range s.train.Labels[p:pe] {
						c[t] = y == label
					}
				}
			}
		}
	}
}

// fillPanel writes the (squared, for the Euclidean metrics) distances of
// batch queries [qi, qi+g) to training rows [lo,hi) into the tile.
func (s *Stream) fillPanel(qi, g, lo, hi int) {
	n, dim := s.train.N(), s.train.Dim()
	tile := s.distBuf[qi*n : (qi+g)*n]
	switch {
	case s.pre != nil && s.trainFlat != nil && s.pre.precision == Float32:
		vec.SqL2NormDotBatch32(tile, s.pre.flat32, n, dim, s.pre.norms32, s.q32[qi*dim:(qi+g)*dim], g, lo, hi)
	case s.pre != nil && s.trainFlat != nil:
		vec.SqL2NormDotBatch(tile, s.trainFlat, n, dim, s.pre.norms, s.q[qi*dim:(qi+g)*dim], g, lo, hi)
	case s.metric == vec.L2 || s.metric == vec.SquaredL2:
		// Non-contiguous training rows (which have no Precomp): the same
		// normdot formula row by row, so the distances still match the
		// tile path bit for bit.
		for i := 0; i < g; i++ {
			sqL2ScanRows(tile[i*n+lo:i*n+hi], s.train.X[lo:hi], s.test.X[s.next+qi+i])
		}
	default:
		for i := 0; i < g; i++ {
			vec.Distances(s.metric, s.train.X[lo:hi], s.test.X[s.next+qi+i], tile[i*n+lo:i*n+hi])
		}
	}
}

// queryBlock returns the next b test rows as one contiguous b×dim block:
// a plain subslice when the test set is flat, otherwise a gather into a
// reused buffer.
func (s *Stream) queryBlock(b, dim int) []float64 {
	if s.testFlat != nil {
		return s.testFlat[s.next*dim : (s.next+b)*dim]
	}
	if cap(s.qBuf) < b*dim {
		s.qBuf = make([]float64, b*dim)
	}
	s.qBuf = s.qBuf[:b*dim]
	for i := 0; i < b; i++ {
		copy(s.qBuf[i*dim:(i+1)*dim], s.test.X[s.next+i])
	}
	return s.qBuf
}

// sqL2ScanRows fills out[i] with the squared Euclidean distance from q to
// rows[i] using the same norm-precompute expression as the batched kernel,
// row norms computed inline, so row-at-a-time and tiled scans agree bit
// for bit.
func sqL2ScanRows(out []float64, rows [][]float64, q []float64) {
	qn := vec.SqNorm(q)
	for i, row := range rows {
		out[i] = vec.SqL2NormDot(row, q, vec.SqNorm(row), qn)
	}
}
