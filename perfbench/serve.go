package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"knnshapley"
)

// api is the serving path one workload client talks to: a real svserver
// over HTTP, or the in-process replay of its handlers. Each call returns
// the HTTP status and the response body; body is only valid until the
// caller's next call with the same buf.
type api interface {
	delta(op int32, parent string, req []byte, buf *bytes.Buffer) (int, []byte, error)
	value(op int32, req []byte, buf *bytes.Buffer) (int, []byte, error)
	remove(op int32, id string) (int, error)
}

// serveClients is the number of concurrent closed-loop clients of the
// serving workload: one per core of the 2-core host the bounds come from.
const serveClients = 2

// rssCycles is the number of cycles each client runs before the measured
// window. peak_rss_mb is read after them, so it is the memory of a fixed
// amount of work and does not grow with the window's throughput.
const rssCycles = 16

// chain is one client's version chain: the datasets it derived from the
// shared parent by appending rows, reconstructed locally for the final
// check.
type chain struct {
	client   int
	cycle    int    // cycles run so far; the next delta's rows derive from it
	head     string // current head dataset ID
	appended [][]float64
	labels   []int
	// The last valuation the client received, decoded after the window.
	valuedID   string
	valuedRows int
	valueBody  []byte
}

// serveLoad is what one serving window measured.
type serveLoad struct {
	lat               map[string][]float64 // ms by request kind: delta, value, delete
	all               []float64
	elapsed           float64
	attempted, failed int
	chains            []*chain
}

// serveInputs are the serving workload's generated datasets and its
// closed-loop shape.
type serveInputs struct {
	parent, test *knnshapley.Dataset
	parentBin    []byte
	testBin      []byte
	parentID     string
	testID       string
	parentRows   int
	deltaRows    int
	seed         uint64
	nextOp       atomic.Int32 // span op IDs of the in-process replay
}

func newServeInputs(cfg config) (*serveInputs, error) {
	in := &serveInputs{
		parent:    genDataset(cfg.seed, streamTrain, cfg.sizes.serveN),
		test:      genDataset(cfg.seed, streamTest, cfg.sizes.batch),
		deltaRows: cfg.sizes.deltaRows,
		seed:      cfg.seed,
	}
	in.parentRows = in.parent.N()
	var pb, tb bytes.Buffer
	if err := knnshapley.WriteBinary(&pb, in.parent); err != nil {
		return nil, err
	}
	if err := knnshapley.WriteBinary(&tb, in.test); err != nil {
		return nil, err
	}
	in.parentBin, in.testBin = pb.Bytes(), tb.Bytes()
	in.parentID = fmt.Sprintf("%016x", in.parent.Fingerprint())
	in.testID = fmt.Sprintf("%016x", in.test.Fingerprint())
	return in, nil
}

// valueRequest is the by-reference exact valuation of trainID on the test
// set.
func (in *serveInputs) valueRequest(trainID string) []byte {
	return []byte(fmt.Sprintf(`{"algorithm":"exact","k":%d,"trainRef":%q,"testRef":%q}`, kNN, trainID, in.testID))
}

// deltaRequest is the inline append of the rows of cycle of client.
func (in *serveInputs) deltaRequest(client, cycle int) ([]byte, [][]float64, []int) {
	x, labels := genRows(in.seed, streamDelta+uint64(client)<<24+uint64(cycle), in.deltaRows)
	body, _ := json.Marshal(map[string]any{"append": map[string]any{"x": x, "labels": labels}})
	return body, x, labels
}

// checkValues is the cheap per-response check: a 200 whose values array
// holds rows entries.
func checkValues(status int, body []byte, rows int) bool {
	const prefix = `{"values":[`
	if status != http.StatusOK || !bytes.HasPrefix(body, []byte(prefix)) {
		return false
	}
	end := bytes.IndexByte(body, ']')
	return end > 0 && bytes.Count(body[len(prefix):end], []byte{','}) == rows-1
}

// newChains starts one version chain per client at the shared parent.
func (in *serveInputs) newChains() []*chain {
	chains := make([]*chain, serveClients)
	for c := range chains {
		chains[c] = &chain{client: c, head: in.parentID}
	}
	return chains
}

// run drives the closed loop: one client per chain, each continuing its
// chain with cycles (append rows by delta, value the new child, delete the
// superseded version), until seconds have passed or it has run cycles
// more. A client finishes the cycle it is in, so its last valuation is of
// its head.
func (in *serveInputs) run(s api, chains []*chain, seconds float64, cycles int) *serveLoad {
	load := &serveLoad{lat: map[string][]float64{}, chains: chains}
	var mu sync.Mutex
	record := func(kind string, ms float64, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		load.lat[kind] = append(load.lat[kind], ms)
		load.all = append(load.all, ms)
		load.attempted++
		if !ok {
			load.failed++
		}
	}
	begin := time.Now()
	deadline := begin.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, ch := range chains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for n := 0; n < cycles && time.Now().Before(deadline); n, ch.cycle = n+1, ch.cycle+1 {
				req, x, labels := in.deltaRequest(ch.client, ch.cycle)
				rows := in.parentRows + len(ch.appended) + len(x)
				start := time.Now()
				status, body, err := s.delta(in.nextOp.Add(1), ch.head, req, &buf)
				ms := float64(time.Since(start)) / 1e6
				var info struct {
					ID   string `json:"id"`
					Rows int    `json:"rows"`
				}
				ok := err == nil && (status == http.StatusCreated || status == http.StatusOK) &&
					json.Unmarshal(body, &info) == nil && info.Rows == rows
				record("delta", ms, ok)
				if !ok {
					continue
				}
				ch.appended, ch.labels = append(ch.appended, x...), append(ch.labels, labels...)
				prev := ch.head
				ch.head = info.ID

				start = time.Now()
				status, body, err = s.value(in.nextOp.Add(1), in.valueRequest(ch.head), &buf)
				ms = float64(time.Since(start)) / 1e6
				ok = err == nil && checkValues(status, body, rows)
				record("value", ms, ok)
				if ok {
					ch.valuedID, ch.valuedRows = ch.head, rows
					ch.valueBody = append(ch.valueBody[:0], body...)
				}

				if prev == in.parentID {
					continue // the parent is shared by every client's chain
				}
				start = time.Now()
				status, err = s.remove(in.nextOp.Add(1), prev)
				record("delete", float64(time.Since(start))/1e6, err == nil && status == http.StatusNoContent)
			}
		}()
	}
	wg.Wait()
	load.elapsed = time.Since(begin).Seconds()
	return load
}

// report records the window's end-to-end metrics.
func (l *serveLoad) report(out *outcome) {
	out.set("ops_per_s", float64(l.attempted)/l.elapsed,
		fmt.Sprintf("HTTP requests of %d closed-loop clients", len(l.chains)))
	out.setLatency("op", l.all)
	for _, kind := range []string{"value", "delta", "delete"} {
		out.setLatency(kind, l.lat[kind])
	}
}

// checkFinal decodes each client's last valuation and compares it bit for
// bit with the library's Valuer.Exact on the locally reconstructed child.
func (in *serveInputs) checkFinal(out *outcome, chains []*chain) error {
	for _, ch := range chains {
		if ch.valuedID == "" {
			out.check(false, "client %d valued no child", ch.client)
			continue
		}
		var resp struct {
			Values []float64 `json:"values"`
		}
		if err := json.Unmarshal(ch.valueBody, &resp); err != nil {
			out.check(false, "client %d: decode last valuation: %v", ch.client, err)
			continue
		}
		rows := ch.valuedRows - in.parentRows
		x := append(append([][]float64{}, in.parent.X...), ch.appended[:rows]...)
		labels := append(append([]int{}, in.parent.Labels...), ch.labels[:rows]...)
		child, err := knnshapley.NewClassificationDataset(x, labels)
		if err != nil {
			return err
		}
		out.check(fmt.Sprintf("%016x", child.Fingerprint()) == ch.valuedID,
			"client %d: last valued child %s is the locally reconstructed dataset (%d rows)", ch.client, ch.valuedID, child.N())
		v, err := knnshapley.New(child, knnshapley.WithK(kNN))
		if err != nil {
			return err
		}
		rep, err := v.Exact(context.Background(), in.test)
		if err != nil {
			return err
		}
		out.check(bitsEqual(resp.Values, rep.Values),
			"client %d: server values of the last child equal Valuer.Exact on the local copy bit for bit", ch.client)
	}
	return nil
}

// runServe drives serve_delta_n2e4 against a real svserver process.
func runServe(cfg config, out *outcome) error {
	in, err := newServeInputs(cfg)
	if err != nil {
		return err
	}
	var srv *serverProc
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var setups []float64
	for r := 0; r < cfg.sizes.setupReps; r++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("server-%d", r))
		start := time.Now()
		if srv, err = startServer(cfg.svserver, dir); err != nil {
			return err
		}
		if err := srv.setUp(in); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.set("setup_s", median(setups),
		fmt.Sprintf("median of %d set-ups: server start, binary uploads, ranking prime", len(setups)))

	chains := in.newChains()
	warm := in.run(srv, chains, time.Minute.Seconds(), rssCycles)
	done := true
	for _, ch := range chains {
		done = done && ch.cycle == rssCycles
	}
	out.check(done && warm.failed == 0, "%d clients ran %d cycles each before the window, %d of %d requests failed",
		serveClients, rssCycles, warm.failed, warm.attempted)
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	out.set("peak_rss_mb", rss, fmt.Sprintf(
		"VmHWM of the svserver process after set-up and %d cycles per client, before the window", rssCycles))

	before, err := srv.counters()
	if err != nil {
		return err
	}
	load := in.run(srv, chains, cfg.seconds, math.MaxInt)
	after, err := srv.counters()
	if err != nil {
		return err
	}
	out.ops(load.attempted, load.failed)
	load.report(out)
	lifetime, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	out.set("peak_rss_lifetime_mb", lifetime, "VmHWM of the svserver process after the window; grows with the ops it completed")
	srv.stop()
	srv = nil

	patches := after["svserver_incremental_patches_total"] - before["svserver_incremental_patches_total"]
	scratch := after["svserver_incremental_fromscratch_total"] - before["svserver_incremental_fromscratch_total"]
	out.check(patches > 0 && scratch == 0, "every revalue in the window took the O(ΔN) patch path: %.0f patched, %.0f from-scratch rankings",
		patches, scratch)
	if err := in.checkFinal(out, chains); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	for name, metric := range map[string]string{
		"cluster.patches":              "svserver_incremental_patches_total",
		"cluster.fromscratch":          "svserver_incremental_fromscratch_total",
		"cluster.rank_cache_evictions": "svserver_rank_cache_evictions_total",
		"registry.puts":                "svserver_registry_puts_total",
		"registry.loads":               "svserver_registry_loads_total",
		"registry.evictions":           "svserver_registry_evictions_total",
		"jobs.runs":                    "svserver_job_runs_total",
	} {
		out.set(name, after[metric]-before[metric], "/metrics difference over the window")
	}
	if patches+scratch > 0 {
		out.set("cluster.patch_ratio", patches/(patches+scratch), "patches / (patches + fromscratch)")
	}
	return traceServe(cfg, out, in, summarize(load.all).p50)
}

// serverProc is a running svserver child process.
type serverProc struct {
	cmd    *exec.Cmd
	exited chan error
	base   string
	log    *stderrWatch
	client *http.Client
}

// startServer starts svserver with its default flags, apart from a
// loopback port and a fresh data directory, and waits until it listens.
func startServer(bin, dataDir string) (*serverProc, error) {
	watch := &stderrWatch{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	cmd.Stderr = watch
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start svserver: %w", err)
	}
	s := &serverProc{cmd: cmd, exited: make(chan error, 1), log: watch,
		client: &http.Client{Timeout: time.Minute}}
	go func() { s.exited <- cmd.Wait() }()
	select {
	case addr := <-watch.addr:
		s.base = "http://" + addr
		return s, nil
	case err := <-s.exited:
		return nil, fmt.Errorf("svserver exited before listening: %v: %s", err, watch.tail())
	case <-time.After(time.Minute):
		cmd.Process.Kill()
		<-s.exited
		return nil, fmt.Errorf("svserver did not listen within a minute: %s", watch.tail())
	}
}

// stop shuts the server down with SIGTERM, as an operator would, and waits
// until the process has exited; a server that does not drain within 20 s
// is killed.
func (s *serverProc) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already exited process is what we want
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// setUp uploads the parent and the test set in the binary format and
// primes the cached neighbor ranking with one by-ref exact valuation.
func (s *serverProc) setUp(in *serveInputs) error {
	for _, up := range []struct {
		body []byte
		id   string
	}{{in.parentBin, in.parentID}, {in.testBin, in.testID}} {
		var info struct {
			ID string `json:"id"`
		}
		status, body, err := s.call(http.MethodPost, "/datasets", "application/octet-stream", up.body, nil)
		if err != nil || status != http.StatusCreated || json.Unmarshal(body, &info) != nil || info.ID != up.id {
			return fmt.Errorf("upload: status %d, err %v, body %.200s, want id %s", status, err, body, up.id)
		}
	}
	status, body, err := s.call(http.MethodPost, "/value", "application/json", in.valueRequest(in.parentID), nil)
	if err != nil || !checkValues(status, body, in.parentRows) {
		return fmt.Errorf("prime: status %d, err %v, body %.200s", status, err, body)
	}
	return nil
}

// call sends one request and reads the whole response into buf (a fresh
// buffer when nil).
func (s *serverProc) call(method, path, contentType string, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

func (s *serverProc) delta(_ int32, parent string, req []byte, buf *bytes.Buffer) (int, []byte, error) {
	return s.call(http.MethodPut, "/datasets/"+parent+"/delta", "application/json", req, buf)
}

func (s *serverProc) value(_ int32, req []byte, buf *bytes.Buffer) (int, []byte, error) {
	return s.call(http.MethodPost, "/value", "application/json", req, buf)
}

func (s *serverProc) remove(_ int32, id string) (int, error) {
	status, _, err := s.call(http.MethodDelete, "/datasets/"+id, "", nil, nil)
	return status, err
}

// counters scrapes the unlabelled samples of GET /metrics.
func (s *serverProc) counters() (map[string]float64, error) {
	status, body, err := s.call(http.MethodGet, "/metrics", "", nil, nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d, err %v", status, err)
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, v, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			vals[name] = f
		}
	}
	return vals, nil
}

// stderrWatch keeps the tail of the server's log and reports the address
// of its "svserver listening on" line.
type stderrWatch struct {
	mu    sync.Mutex
	buf   []byte
	found bool
	addr  chan string
}

func (w *stderrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	if !w.found {
		const marker = "svserver listening on "
		if i := bytes.Index(w.buf, []byte(marker)); i >= 0 {
			rest := w.buf[i+len(marker):]
			if j := bytes.IndexByte(rest, '\n'); j >= 0 {
				w.found = true
				w.addr <- string(rest[:j])
			}
		}
	}
	if w.found && len(w.buf) > 64<<10 {
		w.buf = append(w.buf[:0], w.buf[len(w.buf)-16<<10:]...)
	}
	return len(p), nil
}

func (w *stderrWatch) tail() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return string(w.buf[max(0, len(w.buf)-2048):])
}
