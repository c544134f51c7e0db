package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"knnshapley"
	"knnshapley/internal/cluster"
	"knnshapley/internal/jobs"
	"knnshapley/internal/journal"
	"knnshapley/internal/registry"
	"knnshapley/internal/wire"
)

// inproc replays svserver's delta, value and delete handlers in-process,
// through the same layers and with the server's default configuration: a
// dataset registry, a jobs.Manager with a write-ahead journal, and the
// incremental evaluator over a rank cache. HTTP framing is all it leaves
// out. While t is set, every layer call is a span.
type inproc struct {
	t   *tracer
	reg *registry.Registry
	jw  *journal.Writer
	mgr *jobs.Manager
	inc *cluster.Incremental
}

func newInproc(dir string) (*inproc, error) {
	jw, _, err := journal.Open(journal.Config{
		Dir:           filepath.Join(dir, "journal"),
		FsyncInterval: 25 * time.Millisecond, // svserver's -journal-fsync default
	})
	if err != nil {
		return nil, err
	}
	reg, err := registry.New(registry.Config{Dir: dir, DiskBudget: 4 << 30}) // -disk-budget default
	if err != nil {
		jw.Close()
		return nil, err
	}
	return &inproc{
		reg: reg,
		jw:  jw,
		mgr: jobs.New(jobs.Config{Journal: jw}),
		inc: cluster.NewIncremental(cluster.NewRankCache(0), reg),
	}, nil
}

func (s *inproc) close() {
	s.mgr.Close()
	s.jw.Close()
}

// setUp stores the parent and the test set and primes the parent's
// neighbor ranking, as the HTTP set-up does.
func (s *inproc) setUp(in *serveInputs) error {
	for _, d := range []*knnshapley.Dataset{in.parent, in.test} {
		h, _, err := s.reg.Put(d)
		if err != nil {
			return err
		}
		h.Release()
	}
	status, body, err := s.value(in.nextOp.Add(1), in.valueRequest(in.parentID), nil)
	if err != nil || !checkValues(status, body, in.parentRows) {
		return fmt.Errorf("in-process prime: status %d, err %v", status, err)
	}
	return nil
}

// span runs fn inside a span named name under parent.
func (s *inproc) span(name string, op, parent int32, fn func() error) error {
	id := s.t.open(name, op, parent)
	defer s.t.close(id)
	return fn()
}

// decode is the handlers' strict JSON decode.
func decode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encode is writeJSON's encoding of a response body.
func (s *inproc) encode(op, root int32, v any, buf *bytes.Buffer) ([]byte, error) {
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	err := s.span("wire.encode", op, root, func() error { return json.NewEncoder(buf).Encode(v) })
	return buf.Bytes(), err
}

// wait waits for job and records its queue wait as a span.
func (s *inproc) wait(op, root int32, job *jobs.Job) {
	<-job.Done()
	snap := job.Snapshot()
	if !snap.Started.IsZero() {
		s.t.record("jobs.queue_wait", op, root, snap.Created, snap.Started)
	}
}

// delta is handleDatasetDelta for an inline append.
func (s *inproc) delta(op int32, parent string, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	root := s.t.open("serve.delta", op, -1)
	defer s.t.close(root)
	var dreq wire.DeltaRequest
	if err := s.span("wire.decode", op, root, func() error { return decode(body, &dreq) }); err != nil {
		return http.StatusBadRequest, nil, err
	}
	if dreq.Append == nil {
		return http.StatusBadRequest, nil, errors.New("replay sends inline appends only")
	}
	app, err := knnshapley.NewClassificationDataset(dreq.Append.X, dreq.Append.Labels)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	var ah *registry.Handle
	if err := s.span("registry.put", op, root, func() (err error) { ah, _, err = s.reg.Put(app); return }); err != nil {
		return http.StatusInternalServerError, nil, err
	}
	defer ah.Release()
	appendRef := ah.ID()

	// deltaSpec: pin both sides for the job's lifetime, journal the job.
	ph, err := s.reg.Get(parent)
	if err != nil {
		return http.StatusNotFound, nil, err
	}
	pin, err := s.reg.Get(appendRef)
	if err != nil {
		ph.Release()
		return http.StatusNotFound, nil, err
	}
	reqJSON, err := json.Marshal(wire.DeltaJob{Parent: parent, AppendRef: appendRef})
	if err != nil {
		return http.StatusInternalServerError, nil, err
	}
	env, err := json.Marshal(wire.JobEnvelope{V: wire.JobEnvelopeVersion, Kind: wire.JobKindDelta, Request: reqJSON})
	if err != nil {
		return http.StatusInternalServerError, nil, err
	}
	job, err := s.mgr.Submit(jobs.Spec{
		TotalUnits: 1,
		RunAny: func(context.Context) (any, error) {
			return s.applyDelta(op, root, parent, appendRef)
		},
		Envelope: env,
		OnFinish: func() { ph.Release(); pin.Release() },
	})
	if err != nil {
		return http.StatusTooManyRequests, nil, err
	}
	s.wait(op, root, job)
	v, err := job.Value()
	if err != nil {
		return http.StatusUnprocessableEntity, nil, err
	}
	resp := v.(*wire.DeltaResponse)
	status := http.StatusOK
	if resp.Created {
		status = http.StatusCreated
	}
	out, err := s.encode(op, root, resp, buf)
	return status, out, err
}

// applyDelta is the delta job's run: the registry materializes the child.
func (s *inproc) applyDelta(op, root int32, parent, appendRef string) (*wire.DeltaResponse, error) {
	ah, err := s.reg.Get(appendRef)
	if err != nil {
		return nil, err
	}
	defer ah.Release()
	var ch *registry.Handle
	var lin registry.Lineage
	var created bool
	err = s.span("registry.apply_delta", op, root, func() (err error) {
		ch, lin, created, err = s.reg.ApplyDelta(parent, registry.Delta{Append: ah.Dataset()})
		return err
	})
	if err != nil {
		return nil, err
	}
	defer ch.Release()
	info, err := s.reg.Stat(ch.ID())
	if err != nil {
		return nil, err
	}
	di := wire.DatasetInfo{
		ID: info.ID, Name: info.Name, Rows: info.Rows, Dim: info.Dim, Classes: info.Classes,
		Bytes: info.Bytes, InMemory: info.InMemory, OnDisk: info.OnDisk, Refs: info.Refs,
		CreatedAt: info.CreatedAt, Parent: lin.Parent,
	}
	return &wire.DeltaResponse{DatasetInfo: di, Created: created, Appended: lin.Appended}, nil
}

// value is handleValue for a by-ref exact valuation: buildSpec's session
// and cache key, the incremental evaluator as the job's run, the response
// encode.
func (s *inproc) value(op int32, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	root := s.t.open("serve.value", op, -1)
	defer s.t.close(root)
	var req wire.ValueRequest
	if err := s.span("wire.decode", op, root, func() error { return decode(body, &req) }); err != nil {
		return http.StatusBadRequest, nil, err
	}
	p := req.Params
	if err := p.Validate(); err != nil {
		return http.StatusUnprocessableEntity, nil, err
	}
	trainH, err := s.reg.Get(req.TrainRef)
	if err != nil {
		return http.StatusNotFound, nil, err
	}
	testH, err := s.reg.Get(req.TestRef)
	if err != nil {
		trainH.Release()
		return http.StatusNotFound, nil, err
	}
	release := func() { trainH.Release(); testH.Release() }
	metric, err := knnshapley.ParseMetric(req.Metric)
	if err != nil {
		release()
		return http.StatusBadRequest, nil, err
	}
	precision, err := knnshapley.ParsePrecision(req.Precision)
	if err != nil {
		release()
		return http.StatusBadRequest, nil, err
	}
	train, test := trainH.Dataset(), testH.Dataset()
	key := fmt.Sprintf("%s|k=%d|metric=%s|precision=%s|workers=%d|batch=%d",
		trainH.ID(), req.K, req.Metric, precision, req.Workers, req.BatchSize)
	v, err := s.mgr.Valuer(key, func() (*knnshapley.Valuer, error) {
		return knnshapley.New(train, knnshapley.WithK(req.K), knnshapley.WithMetric(metric),
			knnshapley.WithPrecision(precision), knnshapley.WithWorkers(req.Workers),
			knnshapley.WithBatchSize(req.BatchSize))
	})
	if err != nil {
		release()
		return http.StatusUnprocessableEntity, nil, err
	}
	cacheKey := fmt.Sprintf("%s|%s|%s|k=%d|metric=%s|precision=%s|%s",
		trainH.ID(), testH.ID(), p.Name(), req.K, req.Metric, precision, p.CacheKey())
	creq := cluster.Request{
		Train: train, Test: test, TrainID: trainH.ID(), TestID: testH.ID(),
		Method: "exact", K: v.K(), Metric: metric, MetricName: req.Metric, Precision: precision,
		Workers: req.Workers, BatchSize: req.BatchSize,
	}
	byref := req
	byref.Params = p
	reqJSON, err := json.Marshal(byref)
	if err != nil {
		release()
		return http.StatusInternalServerError, nil, err
	}
	metaJSON, _ := json.Marshal(map[string]any{"algorithm": p.Name(), "trainN": train.N(),
		"trainRef": trainH.ID(), "testRef": testH.ID()})
	env, err := json.Marshal(wire.JobEnvelope{V: wire.JobEnvelopeVersion, CacheKey: cacheKey,
		TotalUnits: test.N(), Request: reqJSON, Meta: metaJSON})
	if err != nil {
		release()
		return http.StatusInternalServerError, nil, err
	}
	job, err := s.mgr.Submit(jobs.Spec{
		CacheKey:   cacheKey,
		TotalUnits: test.N(),
		Run: func(ctx context.Context) (*knnshapley.Report, error) {
			start := time.Now()
			var values []float64
			err := s.span("cluster.incremental", op, root, func() (err error) {
				values, err = s.inc.Values(ctx, creq)
				return err
			})
			if err != nil {
				return nil, err
			}
			rep := &knnshapley.Report{Values: values, Method: "exact", TestPoints: test.N(), Duration: time.Since(start)}
			rep.Fingerprint, _ = strconv.ParseUint(creq.TrainID, 16, 64)
			return rep, nil
		},
		Envelope: env,
		OnFinish: release,
	})
	if err != nil {
		return http.StatusTooManyRequests, nil, err
	}
	s.wait(op, root, job)
	rep, err := job.Report()
	if err != nil {
		return http.StatusUnprocessableEntity, nil, err
	}
	resp := &wire.ValueResponse{
		Values: rep.Values, N: train.N(), Algorithm: p.Name(),
		DurationMs: rep.Duration.Milliseconds(), Fingerprint: fmt.Sprintf("%016x", rep.Fingerprint),
		TrainRef: trainH.ID(), TestRef: testH.ID(),
	}
	out, err := s.encode(op, root, resp, buf)
	return http.StatusOK, out, err
}

// remove is handleDatasetDelete.
func (s *inproc) remove(op int32, id string) (int, error) {
	root := s.t.open("serve.delete", op, -1)
	defer s.t.close(root)
	if err := s.span("registry.delete", op, root, func() error { return s.reg.Delete(id) }); err != nil {
		return http.StatusNotFound, err
	}
	return http.StatusNoContent, nil
}

// replayBlocks is the number of blocks a traced window alternates between
// untraced and traced ops. On the serving replay each value job pins its
// training dataset, so the heap grows throughout; alternating gives both
// halves the same share of that growth, as it gives them the same share of
// the host's drift on every workload.
const replayBlocks = 10

// traceServe replays the serving workload in-process for the window, in
// blocks that alternate between untraced and traced over the same version
// chains, and reports the per-layer metrics of the traced blocks. httpP50
// is the untraced HTTP run's median request latency.
func traceServe(cfg config, out *outcome, in *serveInputs, httpP50 float64) error {
	s, err := newInproc(filepath.Join(cfg.workdir, "replay"))
	if err != nil {
		return err
	}
	defer s.close()
	if err := s.setUp(in); err != nil {
		return err
	}
	t := newTracer()
	chains := in.newChains()
	var plain, traced serveLoad
	for b := 0; b < replayBlocks; b++ {
		dst := &plain
		s.t = nil
		if b%2 == 1 {
			dst, s.t = &traced, t
		}
		load := in.run(s, chains, cfg.seconds/replayBlocks, math.MaxInt)
		dst.all = append(dst.all, load.all...)
		dst.attempted += load.attempted
		dst.failed += load.failed
	}
	s.t = nil
	out.ops(plain.attempted+traced.attempted, plain.failed+traced.failed)
	if err := in.checkFinal(out, chains); err != nil {
		return err
	}
	checkSpans(out, t)

	perCall := func(name string) float64 {
		s, n := t.total(name)
		if n == 0 {
			return 0
		}
		return s / float64(n)
	}
	for metricName, spanName := range map[string]string{
		"wire.decode_s":          "wire.decode",
		"wire.encode_s":          "wire.encode",
		"registry.apply_delta_s": "registry.apply_delta",
		"registry.delete_s":      "registry.delete",
		"jobs.queue_wait_s":      "jobs.queue_wait",
		"cluster.incremental_s":  "cluster.incremental",
	} {
		out.set(metricName, perCall(spanName))
	}
	inprocP50 := summarize(plain.all).p50
	out.set("svserver.other_ms", httpP50-inprocP50,
		fmt.Sprintf("HTTP median %.4f ms minus in-process replay median %.4f ms", httpP50, inprocP50))
	finishTrace(cfg, out, t, loopResult{latMs: traced.all, attempted: traced.attempted}, mean(plain.all))
	return nil
}
