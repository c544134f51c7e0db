package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"knnshapley"
	"knnshapley/internal/core"
	"knnshapley/internal/knn"
)

const (
	kNN      = 5
	truncEps = 0.01
	lshEps   = 0.1
	lshDelta = 0.1
	lshSeed  = 1

	// efficiencyTol bounds |Σ sv − (ν(I) − ν(∅))| for an exact valuation:
	// the values are exact up to float64 rounding of N recurrence steps.
	efficiencyTol = 1e-9
	// traceSlack bounds how far a workload's traced stage spans may sum
	// from its untraced end-to-end op time.
	traceSlack = 0.15
)

// kept is one measured op retained for the reference checks after the
// window: its test batch and a copy of its values.
type kept struct {
	test   *knnshapley.Dataset
	values []float64
}

// loopResult is what one closed-loop window measured.
type loopResult struct {
	latMs             []float64
	rssMB             []float64 // peak resident set during each op
	elapsed           float64   // seconds from the first op's start to the last op's end
	attempted, failed int
	kept              []kept
}

// closedLoop calls do with one caller, each op on a fresh test batch drawn
// from stream, until cfg.seconds have passed. Every output gets a cheap
// shape check; a seeded sample of cfg.sizes.checkOps ops is kept for the
// expensive reference checks the caller runs after the window. A non-nil
// probe samples the peak resident set of every op.
func closedLoop(cfg config, stream uint64, n int, probe *rssProbe, do func(op int, test *knnshapley.Dataset) ([]float64, error)) loopResult {
	var res loopResult
	pick := rand.New(rand.NewPCG(cfg.seed, streamSample^stream))
	begin := time.Now()
	deadline := begin.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var last time.Time
	for i := 0; time.Now().Before(deadline); i++ {
		test := genDataset(cfg.seed, stream+uint64(i), cfg.sizes.batch)
		if probe != nil {
			probe.reset()
		}
		start := time.Now()
		values, err := do(i, test)
		last = time.Now()
		res.attempted++
		res.latMs = append(res.latMs, float64(last.Sub(start))/1e6)
		if probe != nil {
			if mb, err := probe.peak(); err == nil {
				res.rssMB = append(res.rssMB, mb)
			}
		}
		if err != nil || !finiteOfLen(values, n) {
			res.failed++
			continue
		}
		slot := i
		if i >= cfg.sizes.checkOps {
			slot = pick.IntN(i + 1)
		}
		if slot < cfg.sizes.checkOps {
			k := kept{test: test, values: append([]float64(nil), values...)}
			if slot < len(res.kept) {
				res.kept[slot] = k
			} else {
				res.kept = append(res.kept, k)
			}
		}
	}
	res.elapsed = last.Sub(begin).Seconds()
	return res
}

// report records the window's throughput and latency as the end-to-end
// op metrics.
func (r loopResult) report(out *outcome) {
	out.set("ops_per_s", float64(r.attempted)/r.elapsed)
	out.setLatency("op", r.latMs)
}

func finiteOfLen(v []float64, n int) bool {
	if len(v) != n {
		return false
	}
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		m = max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// setPeakRSS records peak_rss_mb: the larger of the median set-up peak
// and the median per-op peak, so memory a change adds to either shows.
func setPeakRSS(out *outcome, setupMB []float64, loop loopResult) error {
	if len(setupMB) == 0 || len(loop.rssMB) == 0 {
		return errors.New("no resident-set samples")
	}
	s, o := median(setupMB), median(loop.rssMB)
	out.set("peak_rss_mb", max(s, o), fmt.Sprintf(
		"VmHWM of the benchmark process, which runs the valuations: median set-up peak %.1f, median op peak %.1f", s, o))
	return nil
}

// sampleSetup runs one set-up from a settled resident set, returning its
// duration and peak resident set.
func sampleSetup(probe *rssProbe, setup func() error) (seconds, mb float64, err error) {
	probe.settle()
	start := time.Now()
	if err := setup(); err != nil {
		return 0, 0, err
	}
	seconds = time.Since(start).Seconds()
	mb, err = probe.peak()
	return seconds, mb, err
}

func runExact(cfg config, out *outcome) error     { return runScan(cfg, out, false) }
func runTruncated(cfg config, out *outcome) error { return runScan(cfg, out, true) }

// runScan drives exact_n1e5 (truncated=false) and truncated_n1e5: one
// Valuer session over N training points, one op is Valuer.Exact or
// Valuer.Truncated(eps=0.01) on a fresh test batch.
func runScan(cfg config, out *outcome, truncated bool) error {
	ctx := context.Background()
	sz := cfg.sizes
	train := genDataset(cfg.seed, streamTrain, sz.exactN)
	value := func(v *knnshapley.Valuer, test *knnshapley.Dataset, trunc bool) ([]float64, error) {
		var rep *knnshapley.Report
		var err error
		if trunc {
			rep, err = v.Truncated(ctx, test, truncEps)
		} else {
			rep, err = v.Exact(ctx, test)
		}
		if err != nil {
			return nil, err
		}
		return rep.Values, nil
	}

	// Set-up: the session, with its lazy precomputation finished by one
	// warm-up op.
	warm := genDataset(cfg.seed, streamWarm, sz.batch)
	probe := newRSSProbe()
	var v *knnshapley.Valuer
	var setups, setupMB []float64
	for r := 0; r < sz.setupReps; r++ {
		v = nil
		secs, mb, err := sampleSetup(probe, func() (err error) {
			if v, err = knnshapley.New(train, knnshapley.WithK(kNN)); err != nil {
				return err
			}
			if _, err = value(v, warm, truncated); err != nil {
				return fmt.Errorf("warm-up op: %w", err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		setups, setupMB = append(setups, secs), append(setupMB, mb)
	}
	out.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))

	loop := closedLoop(cfg, streamBatch, train.N(), probe, func(_ int, test *knnshapley.Dataset) ([]float64, error) {
		return value(v, test, truncated)
	})
	out.ops(loop.attempted, loop.failed)
	loop.report(out)
	if err := setPeakRSS(out, setupMB, loop); err != nil {
		return err
	}

	// Reference checks on the kept ops, outside the window.
	var worst float64
	all := make([]int, train.N())
	for j := range all {
		all[j] = j
	}
	for i, k := range loop.kept {
		if truncated {
			exact, err := value(v, k.test, false)
			if err != nil {
				return err
			}
			e := maxAbsDiff(k.values, exact)
			worst = max(worst, e)
			out.check(e <= truncEps, "kept op %d: truncated max |v − v_exact| = %.3g ≤ eps %g", i, e, truncEps)
			continue
		}
		full, err := v.Utility(ctx, k.test, all)
		if err != nil {
			return err
		}
		empty, err := v.Utility(ctx, k.test, nil)
		if err != nil {
			return err
		}
		gap := math.Abs(sum(k.values) - (full - empty))
		out.check(gap <= efficiencyTol, "kept op %d: efficiency |Σ sv − (ν(I) − ν(∅))| = %.3g ≤ %g", i, gap, efficiencyTol)
	}
	if truncated {
		out.set("max_abs_err", worst, fmt.Sprintf("over %d kept ops, eps %g", len(loop.kept), truncEps))
	}
	if !cfg.trace {
		return nil
	}
	return traceScan(cfg, out, train, truncated, func(test *knnshapley.Dataset) ([]float64, error) {
		return value(v, test, truncated)
	})
}

// alternate runs a traced window as replayBlocks blocks that alternate
// between untraced ops (plain) and traced ops, each block on fresh
// batches. Both halves see the same host drift and the same heap, so the
// untraced half is the baseline the traced spans are checked against; a
// separate untraced window run earlier can differ from the traced one by
// more than the stage-sum slack on a shared host.
func alternate(cfg config, n int, plain, traced func(op int, test *knnshapley.Dataset) ([]float64, error)) (untraced, tr loopResult) {
	block := cfg
	block.seconds = cfg.seconds / replayBlocks
	op := 0
	for b := 0; b < replayBlocks; b++ {
		do, dst := plain, &untraced
		if b%2 == 1 {
			do, dst = traced, &tr
		}
		base := op
		r := closedLoop(block, streamTraced+uint64(b)<<16, n, nil, func(i int, test *knnshapley.Dataset) ([]float64, error) {
			return do(base+i, test)
		})
		op += r.attempted
		dst.latMs = append(dst.latMs, r.latMs...)
		dst.attempted += r.attempted
		dst.failed += r.failed
		dst.kept = append(dst.kept, r.kept...)
	}
	return untraced, tr
}

// traceScan replays the workload's op stage by stage through the layers'
// public functions: the knn stream's distance scan, the engine, and per
// test point the ordering (vec radix argsort through the worker scratch,
// or the kheap top-K) and the core recurrence. The staged ops alternate
// in blocks with untraced calls of reference, the Valuer's op. It then
// checks that the staged values equal the Valuer's bit for bit.
func traceScan(cfg config, out *outcome, train *knnshapley.Dataset, truncated bool, reference func(*knnshapley.Dataset) ([]float64, error)) error {
	ctx := context.Background()
	t := newTracer()
	pre := knn.NewPrecomp(train, knnshapley.L2, knnshapley.Float64)
	kern := &tracedKernel{t: t, n: train.N(), truncated: truncated}
	src := &tracedSource{t: t, rows: train.N()}
	stage := func(op int, test *knnshapley.Dataset) ([]float64, error) {
		id := int32(op)
		root := t.open("op", id, -1)
		defer t.close(root)
		sid := t.open("knn.stream", id, root)
		stream, err := knn.NewStreamPre(knn.UnweightedClass, kNN, nil, knnshapley.L2, train, test, pre)
		t.close(sid)
		if err != nil {
			return nil, err
		}
		eng := t.open("core.engine", id, root)
		defer t.close(eng)
		src.stream, src.op, src.engine = stream, id, eng
		kern.op, kern.engine = id, eng
		return core.NewEngine[*knn.TestPoint](core.EngineConfig{}).Run(ctx, src, kern)
	}
	plain, loop := alternate(cfg, train.N(), func(_ int, test *knnshapley.Dataset) ([]float64, error) {
		return reference(test)
	}, stage)
	out.ops(plain.attempted+loop.attempted, plain.failed+loop.failed)
	for i, k := range loop.kept {
		ref, err := reference(k.test)
		if err != nil {
			return err
		}
		out.check(bitsEqual(k.values, ref), "traced kept op %d: stage-by-stage values equal the Valuer's bit for bit", i)
	}
	checkSpans(out, t)

	ops := float64(loop.attempted)
	per := func(name string) float64 { s, _ := t.total(name); return s / ops }
	calls := func(name string) float64 { _, n := t.total(name); return float64(n) / ops }
	out.set("knn.scan_s", per("knn.scan"))
	out.set("knn.scan_calls", calls("knn.scan"))
	out.set("knn.scan_bytes", float64(src.bytes)/ops, "computed from array sizes, see README")
	if truncated {
		out.set("kheap.topk_s", per("kheap.topk"))
	} else {
		out.set("vec.argsort_s", per("vec.argsort"))
		out.set("vec.argsort_calls", calls("vec.argsort"))
	}
	recur := "core.ExactClassFromRankingInto, the public equivalent of the kernel Valuer.Exact runs"
	if truncated {
		recur = "core.TruncatedFromRankingInto"
	}
	out.set("core.recur_s", per("core.recur"), recur+"; the per-rank correctness gather is the core.gather stage")
	out.set("core.engine_s", per("core.engine"))
	out.set("core.engine_other_s", t.selfTime("core.engine")/ops,
		"engine wall time no scan or kernel span covers: zeroing, dispatch, reduction")
	finishTrace(cfg, out, t, loop, mean(plain.latMs))
	return nil
}

// finishTrace reports the tracing overhead and checks the stage sum, and
// writes the spans out.
func finishTrace(cfg config, out *outcome, t *tracer, loop loopResult, untracedMs float64) {
	tracedMs := mean(loop.latMs)
	out.set("trace.overhead", tracedMs/untracedMs-1,
		fmt.Sprintf("traced mean op %.4f ms vs untraced %.4f ms", tracedMs, untracedMs))
	checkStages(out, t, loop.attempted, untracedMs, traceSlack)
	if cfg.spans != "" {
		name := fmt.Sprintf("%s-seed%d.jsonl", cfg.name, cfg.seed)
		if path, err := t.write(cfg.spans, name); err != nil {
			out.note("spans not written: %v", err)
		} else {
			out.note("spans written to %s", path)
		}
	}
}

// tracedSource times each distance-scan batch of the knn stream.
type tracedSource struct {
	t           *tracer
	stream      *knn.Stream
	op, engine  int32
	rows, bytes int
}

// NextBatch implements core.Source.
func (s *tracedSource) NextBatch(ctx context.Context, dst []*knn.TestPoint) (int, error) {
	id := s.t.open("knn.scan", s.op, s.engine)
	n, err := s.stream.NextBatch(ctx, dst)
	s.t.close(id)
	if n > 0 {
		s.bytes += scanBytes(s.rows, n)
	}
	return n, err
}

// scanBytes is the memory traffic of one scan batch of b test points over
// n training rows, computed from array sizes: the training matrix and its
// norms are swept once per block of four queries; each distance is written,
// then read and written again by the square root pass; each training label
// is read and each correctness flag written once per query.
func scanBytes(n, b int) int {
	blocks := (b + 3) / 4
	return blocks*n*(dim+1)*8 + b*n*(3*8+8+1)
}

// tracedKernel is the exact or truncated class kernel, split into its
// ordering and recurrence stages with one span each.
type tracedKernel struct {
	t          *tracer
	op, engine int32
	n          int
	truncated  bool
}

// OutLen implements core.Kernel.
func (k *tracedKernel) OutLen() int { return k.n }

// Compute implements core.Kernel with the stages of the library's class
// kernels: order the training points, gather per-rank correctness, run the
// Theorem 1 recurrence (the Theorem 2 truncation for truncated). The
// truncated kernel does the same gather; the exact kernel Valuer.Exact
// runs recurs over tp.Correct directly, so on the exact workload the
// gather is a stage of the benchmark's, not the program's, and
// ExactClassFromRankingInto stands in for that kernel's recurrence. The
// values are bit-identical either way.
func (k *tracedKernel) Compute(_ context.Context, _ int, tp *knn.TestPoint, s *core.Scratch, dst []float64) error {
	item := k.t.open("core.item", k.op, k.engine)
	defer k.t.close(item)
	var ranking []int
	if kStar := core.KStar(tp.K, truncEps); k.truncated && kStar < k.n {
		id := k.t.open("kheap.topk", k.op, item)
		ranking = s.TopKOf(tp, kStar)
		k.t.close(id)
	} else {
		id := k.t.open("vec.argsort", k.op, item)
		ranking = s.OrderOf(tp)
		k.t.close(id)
	}
	id := k.t.open("core.gather", k.op, item)
	correct := s.Bools(len(ranking))
	for r, i := range ranking {
		correct[r] = tp.Correct[i]
	}
	k.t.close(id)
	id = k.t.open("core.recur", k.op, item)
	if k.truncated {
		core.TruncatedFromRankingInto(ranking, correct, k.n, tp.K, truncEps, dst)
	} else {
		core.ExactClassFromRankingInto(ranking, correct, tp.K, dst)
	}
	k.t.close(id)
	return nil
}

// runLSH drives lsh_n1e4: set-up builds the LSH index into a fresh index
// directory and a second session reloads it, as a restarted server would;
// one op is Valuer.LSH on a fresh test batch against the reloaded session.
func runLSH(cfg config, out *outcome) error {
	ctx := context.Background()
	sz := cfg.sizes
	train := genDataset(cfg.seed, streamTrain, sz.lshN)
	check := genDataset(cfg.seed, streamCheck, sz.batch)
	probe := newRSSProbe()
	lshValues := func(v *knnshapley.Valuer, test *knnshapley.Dataset) ([]float64, error) {
		rep, err := v.LSH(ctx, test, lshEps, lshDelta, lshSeed)
		if err != nil {
			return nil, err
		}
		return rep.Values, nil
	}
	// session opens the index store in dir and makes the index available to
	// a new session, timing the whole; build says whether EnsureIndex must
	// be a fresh build or a reload.
	session := func(dir string, build bool) (*knnshapley.Valuer, float64, error) {
		start := time.Now()
		st, err := knnshapley.OpenIndexDir(dir, 0)
		if err != nil {
			return nil, 0, err
		}
		v, err := knnshapley.New(train, knnshapley.WithK(kNN), knnshapley.WithIndexStore(st))
		if err != nil {
			return nil, 0, err
		}
		status, err := v.EnsureIndex("lsh", lshEps, lshDelta, lshSeed)
		secs := time.Since(start).Seconds()
		if err == nil && (status.Built != build || status.Loaded == build) {
			err = fmt.Errorf("EnsureIndex reports %+v, want built=%v", status, build)
		}
		return v, secs, err
	}

	var v *knnshapley.Valuer
	var setups, setupMB, builds, loads, heaps, files []float64
	heap0 := heapAfterGC() // before any session exists
	for r := 0; r < sz.setupReps; r++ {
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("indexes-%d", r))
		v = nil
		probe.settle()
		built, buildS, err := session(dir, true)
		if err != nil {
			return fmt.Errorf("lsh build: %w", err)
		}
		// Untimed: the building session's values, for the reload check.
		want, err := lshValues(built, check)
		if err != nil {
			return err
		}
		built = nil
		runtime.GC()
		var loadS float64
		if v, loadS, err = session(dir, false); err != nil {
			return fmt.Errorf("lsh reload: %w", err)
		}
		mb, err := probe.peak()
		if err != nil {
			return err
		}
		// The building session's last valuation ended a reload ago, so its
		// engine goroutines no longer pin it: only the reloaded one is live.
		heap1 := heapAfterGC()
		out.note("set-up %d: build %.3f s, reload %.3f s, live heap %.1f MB after the reload, %.1f MB without any session",
			r, buildS, loadS, float64(heap1)/1e6, float64(heap0)/1e6)
		heaps = append(heaps, float64(heap1)-float64(heap0))
		setups, setupMB = append(setups, buildS+loadS), append(setupMB, mb)
		builds, loads = append(builds, buildS), append(loads, loadS)
		size, err := knnsiBytes(dir)
		if err != nil {
			return err
		}
		files = append(files, float64(size))
		got, err := lshValues(v, check)
		if err != nil {
			return err
		}
		out.check(bitsEqual(got, want), "set-up %d: reloaded session's values equal the building session's bit for bit", r)
	}
	out.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups, each an index build plus a reload", len(setups)))

	loop := closedLoop(cfg, streamBatch, train.N(), probe, func(_ int, test *knnshapley.Dataset) ([]float64, error) {
		return lshValues(v, test)
	})
	out.ops(loop.attempted, loop.failed)
	loop.report(out)
	if err := setPeakRSS(out, setupMB, loop); err != nil {
		return err
	}
	var worst float64
	for i, k := range loop.kept {
		rep, err := v.Exact(ctx, k.test)
		if err != nil {
			return err
		}
		e := maxAbsDiff(k.values, rep.Values)
		worst = max(worst, e)
		out.check(e <= lshEps, "kept op %d: lsh max |v − v_exact| = %.3g ≤ eps %g", i, e, lshEps)
	}
	out.set("max_abs_err", worst, fmt.Sprintf("over %d kept ops, eps %g", len(loop.kept), lshEps))
	if !cfg.trace {
		return nil
	}

	out.set("lsh.build_s", median(builds), "median over set-ups")
	out.set("lsh.load_s", median(loads), "median over set-ups")
	out.set("lsh.index_bytes", median(files), ".knnsi file size")
	out.set("lsh.heap_bytes", median(heaps), "live heap the reloaded session adds to the training set's")
	t := newTracer()
	plain, traced := alternate(cfg, train.N(), func(_ int, test *knnshapley.Dataset) ([]float64, error) {
		return lshValues(v, test)
	}, func(op int, test *knnshapley.Dataset) ([]float64, error) {
		root := t.open("op", int32(op), -1)
		defer t.close(root)
		id := t.open("lsh.query", int32(op), root)
		defer t.close(id)
		return lshValues(v, test)
	})
	out.ops(plain.attempted+traced.attempted, plain.failed+traced.failed)
	checkSpans(out, t)
	q, _ := t.total("lsh.query")
	out.set("lsh.query_s", q/float64(traced.attempted), "Valuer.LSH: K* retrieval plus the truncated recurrence")
	finishTrace(cfg, out, t, traced, mean(plain.latMs))
	return nil
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// knnsiBytes sums the sizes of the persisted index containers under dir.
func knnsiBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".knnsi") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		return 0, err
	}
	if total == 0 {
		return 0, fmt.Errorf("no .knnsi index file under %s", dir)
	}
	return total, nil
}
