package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Config shapes a daemon.
type Config struct {
	// Addr is the listen address for ListenAndServe (e.g. ":8080" or
	// "127.0.0.1:0").
	Addr string
	// StoreDir roots the crash-safe store (results and job journal).
	StoreDir string
	// QueueCap bounds the admission queue (default 16); submissions past
	// it are rejected with 429 and a backoff hint.
	QueueCap int
	// DrainTimeout bounds graceful drain (default 30s): how long SIGTERM
	// waits for in-flight work before cancelling it. A cancelled job keeps
	// its journal entry and is replayed on the next start.
	DrainTimeout time.Duration
	// GitDescribe identifies the checkout; it salts every fingerprint so
	// a rebuilt daemon never serves a stale memoized document.
	GitDescribe string
	// Workers is the number of concurrent job executors (default 1).
	// Each worker's jobs run with a partitioned share of the global
	// sample pool (core.WithParallelism), so total goroutines stay
	// bounded and output stays byte-identical at any worker count.
	Workers int
	// StoreMaxBytes, when positive, caps the resident memoized-document
	// bytes; the store evicts least-recently-used documents to stay
	// under it (journaled-but-unserved jobs are never evicted).
	StoreMaxBytes int64
	// FS is the filesystem every durable write goes through; nil means
	// the real disk. Tests and the PROTOLAT_FSFAULT env knob inject a
	// storage fault layer here.
	FS storage.FS
}

// Server is the experiment daemon: one admission queue, one store, and
// cfg.Workers goroutines executing jobs concurrently. Each job
// parallelizes internally over a partitioned share of the shared sample
// pool, so concurrent jobs split the machine instead of oversubscribing
// it — and because every driver's output is identical at any pool width,
// daemon output is byte-identical at any worker count.
type Server struct {
	cfg      Config
	store    *Store
	q        *queue
	baseCtx  context.Context
	cancel   context.CancelFunc
	workerWG sync.WaitGroup
	draining atomic.Bool
	inFlight atomic.Int32

	statsMu sync.Mutex
	stats   obs.ServeStatsDoc

	// beforeRun, when set (tests), runs after the memo re-check and
	// before a job executes — the hook coalescing and crash tests use to
	// hold a job in the running state.
	beforeRun func(*job)
}

// New opens the store, replays the journaled queue (crash recovery), and
// starts the worker. Recovered jobs are re-admitted ahead of new work;
// the queue is sized to hold all of them plus QueueCap fresh submissions.
func New(cfg Config) (*Server, error) {
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("serve: Config.StoreDir is required")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	store, err := OpenStoreFS(cfg.FS, cfg.StoreDir, cfg.StoreMaxBytes)
	if err != nil {
		return nil, err
	}
	pending, err := store.Recover()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		store: store,
		q:     newQueue(cfg.QueueCap + len(pending)),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	for _, rj := range pending {
		s.q.enqueueRecovered(rj.Spec.Normalized(), rj.Fingerprint)
	}
	s.addStats(func(st *obs.ServeStatsDoc) {
		st.Accepted += len(pending)
		st.Recovered += len(pending)
	})
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// addStats mutates the counters under the stats lock.
func (s *Server) addStats(f func(*obs.ServeStatsDoc)) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	f(&s.stats)
}

// Stats snapshots the daemon counters plus the live queue state.
func (s *Server) Stats() obs.ServeStatsDoc {
	s.statsMu.Lock()
	st := s.stats
	s.statsMu.Unlock()
	st.QueueDepth = s.q.depth()
	st.QueueCap = s.cfg.QueueCap
	st.InFlight = int(s.inFlight.Load())
	st.Draining = s.draining.Load()
	st.Workers = s.cfg.Workers
	resident, capBytes, evicted, freed := s.store.Bytes()
	st.StoreBytes = resident
	st.StoreMaxBytes = capBytes
	st.Evicted = evicted
	st.EvictedBytes = freed
	return st
}

// worker executes admitted jobs until the queue closes; cfg.Workers of
// these run concurrently, each pulling from the shared queue.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.q.ch {
		s.runJob(j)
	}
}

// runJob executes one job end to end: memo re-check, build, classify,
// persist, publish. It always finishes the job, so waiters never hang.
func (s *Server) runJob(j *job) {
	defer s.q.finish(j)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	// Memo re-check: a recovered job may have persisted its document just
	// before the crash, and a coalesced burst may follow a completed run.
	if doc, err := s.store.Get(j.fp); err == nil && doc != nil {
		j.doc, j.cache, j.status = doc, "hit", http.StatusOK
		s.addStats(func(st *obs.ServeStatsDoc) { st.Completed++; st.StoreHits++ })
		s.store.DropJob(j.fp)
		return
	}
	// Partition the shared sample pool across workers: each job's fan-outs
	// are capped at an equal share, so W concurrent jobs use the same total
	// width one job would. Output is unaffected — every driver is
	// byte-identical at any width.
	ctx := s.baseCtx
	if s.cfg.Workers > 1 {
		share := core.Parallelism() / s.cfg.Workers
		if share < 1 {
			share = 1
		}
		ctx = core.WithParallelism(ctx, share)
	}
	if hook := s.beforeRun; hook != nil {
		hook(j)
	}
	doc, err := s.buildDocument(ctx, j.spec)
	if err == nil {
		j.doc, err = doc.Marshal()
	}
	if err != nil {
		j.err = err
		j.status, j.reason = classify(err)
		s.addStats(func(st *obs.ServeStatsDoc) { st.Failed++ })
		return
	}
	j.cache, j.status = "computed", http.StatusOK
	if perr := s.store.Put(j.fp, j.doc); perr != nil {
		// Degradation ladder: a result we computed but cannot persist is
		// still a correct result — serve it, flag it, keep the job
		// journal so a restart recomputes instead of losing it.
		j.degraded = true
		s.addStats(func(st *obs.ServeStatsDoc) { st.Completed++; st.DegradedPersists++ })
		return
	}
	s.store.DropJob(j.fp)
	s.addStats(func(st *obs.ServeStatsDoc) { st.Completed++ })
}

// buildDocument computes a job's document through the registry — the
// same call the protolat CLI makes for -json, so the two are
// byte-identical by construction.
func (s *Server) buildDocument(ctx context.Context, spec Spec) (*obs.Document, error) {
	doc, err := Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	doc.Manifest.GitDescribe = s.cfg.GitDescribe
	return doc, nil
}

// classify maps a job failure to its HTTP status and machine-readable
// reason — the daemon's degradation ladder.
func classify(err error) (int, string) {
	var se *SpecError
	var be *core.BudgetError
	var ee *storage.EnvelopeError
	switch {
	case errors.As(err, &se):
		return http.StatusBadRequest, "spec"
	case errors.As(err, &be):
		return http.StatusUnprocessableEntity, "budget"
	case errors.As(err, &ee):
		return http.StatusInternalServerError, "journal-" + ee.Reason
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "cancelled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// retryAfterMS computes the backpressure hint for a rejected submission:
// exponential in the queue depth, with a deterministic jitter derived
// from the fingerprint (no wall-clock randomness — two clients with
// different specs spread out, and a given spec's hint is reproducible).
func retryAfterMS(fp string, depth int) int {
	shift := depth
	if shift > 6 {
		shift = 6
	}
	base := 250 << uint(shift)
	jitter := int(crc32.ChecksumIEEE([]byte(fp)) % uint32(base/2+1))
	ms := base + jitter
	if ms > 30000 {
		ms = 30000
	}
	return ms
}

// errorBody is the JSON error payload.
type errorBody struct {
	Error        string `json:"error"`
	Reason       string `json:"reason,omitempty"`
	RetryAfterMS int    `json:"retry_after_ms,omitempty"`
}

// writeError emits a JSON error, with a Retry-After header when the
// failure is retryable.
func writeError(w http.ResponseWriter, status int, msg, reason string, retryMS int) {
	w.Header().Set("Content-Type", "application/json")
	if retryMS > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", (retryMS+999)/1000))
	}
	w.WriteHeader(status)
	b, _ := json.Marshal(errorBody{Error: msg, Reason: reason, RetryAfterMS: retryMS})
	w.Write(append(b, '\n'))
}

// writeDoc emits a completed document.
func writeDoc(w http.ResponseWriter, doc []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(doc)
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/experiments   submit a spec; blocks until the document is ready
//	GET  /v1/results/{fp}  fetch a memoized document by fingerprint
//	GET  /v1/stats         daemon counters as a protolat JSON document
//	GET  /v1/jobs          queued/running jobs
//	GET  /v1/healthz       liveness and drain state
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/experiments", s.handleSubmit)
	mux.HandleFunc("/v1/results/", s.handleResult)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	return mux
}

// handleSubmit is the admission path; see the package comment for the
// order of gates (memo → drain → queue → coalesce).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a spec to this endpoint", "method", 0)
		return
	}
	spec, err := decodeSpec(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: "+err.Error(), "parse", 0)
		return
	}
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), "spec", 0)
		return
	}
	fp := spec.Fingerprint(s.cfg.GitDescribe)
	w.Header().Set("X-Protolat-Fingerprint", fp)

	// Memo fast path: a stored result is served unconditionally — even
	// while draining or with a full queue, the cheapest path stays open.
	doc, err := s.store.Get(fp)
	if err != nil {
		status, reason := classify(err)
		s.addStats(func(st *obs.ServeStatsDoc) { st.Failed++ })
		writeError(w, status, err.Error(), reason, 0)
		return
	}
	if doc != nil {
		s.addStats(func(st *obs.ServeStatsDoc) { st.StoreHits++ })
		w.Header().Set("X-Protolat-Cache", "hit")
		writeDoc(w, doc)
		return
	}

	if s.draining.Load() {
		s.addStats(func(st *obs.ServeStatsDoc) { st.RejectedDraining++ })
		writeError(w, http.StatusServiceUnavailable,
			"daemon is draining; submit again after restart", "draining",
			retryAfterMS(fp, 0))
		return
	}

	// The journal entry is written inside the queue's admission critical
	// section, before any worker can see the job: a fast job could
	// otherwise finish (and drop a journal not yet written) before the
	// entry landed, stranding an orphan <fp>.job.json in the store.
	degradedAdmit := false
	j, coalesced, err := s.q.submit(spec, fp, func(*job) {
		if err := s.store.PutJob(fp, spec); err != nil {
			// Degradation: an unjournaled job still runs; it just will
			// not survive a crash. Flag it so the client knows.
			degradedAdmit = true
		}
	})
	switch {
	case errors.Is(err, errDraining):
		s.addStats(func(st *obs.ServeStatsDoc) { st.RejectedDraining++ })
		writeError(w, http.StatusServiceUnavailable, err.Error(), "draining", retryAfterMS(fp, 0))
		return
	case errors.Is(err, errQueueFull):
		depth := s.q.depth()
		s.addStats(func(st *obs.ServeStatsDoc) { st.RejectedFull++ })
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("queue full (%d jobs pending)", depth), "backpressure",
			retryAfterMS(fp, depth))
		return
	case err != nil:
		s.addStats(func(st *obs.ServeStatsDoc) { st.Failed++ })
		writeError(w, http.StatusInternalServerError, err.Error(), "internal", 0)
		return
	}

	if coalesced {
		s.addStats(func(st *obs.ServeStatsDoc) { st.Coalesced++ })
	} else {
		s.addStats(func(st *obs.ServeStatsDoc) { st.Accepted++; st.StoreMisses++ })
		if degradedAdmit {
			s.addStats(func(st *obs.ServeStatsDoc) { st.DegradedPersists++ })
		}
	}

	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client gone; the job keeps running and lands in the store for
		// the retry this disconnect will usually provoke.
		return
	}

	if j.status != http.StatusOK {
		writeError(w, j.status, j.err.Error(), j.reason, 0)
		return
	}
	cache := j.cache
	if coalesced && cache == "computed" {
		cache = "coalesced"
	}
	w.Header().Set("X-Protolat-Cache", cache)
	if j.degraded || degradedAdmit {
		w.Header().Set("X-Protolat-Degraded", "store")
	}
	writeDoc(w, j.doc)
}

// handleResult serves a memoized document by fingerprint.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET a fingerprint from this endpoint", "method", 0)
		return
	}
	fp := strings.TrimPrefix(r.URL.Path, "/v1/results/")
	if fp == "" || strings.ContainsAny(fp, "/\\.") {
		writeError(w, http.StatusBadRequest, "want /v1/results/<fingerprint>", "path", 0)
		return
	}
	doc, err := s.store.Get(fp)
	if err != nil {
		status, reason := classify(err)
		writeError(w, status, err.Error(), reason, 0)
		return
	}
	if doc == nil {
		writeError(w, http.StatusNotFound, "no memoized result for "+fp, "missing", 0)
		return
	}
	s.addStats(func(st *obs.ServeStatsDoc) { st.StoreHits++ })
	w.Header().Set("X-Protolat-Fingerprint", fp)
	w.Header().Set("X-Protolat-Cache", "hit")
	writeDoc(w, doc)
}

// handleStats serves the daemon counters wrapped in the standard document
// schema, so the same tooling that reads experiment exports reads daemon
// health.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	doc := &obs.Document{Manifest: core.NewManifest("protolat -serve", 0, core.Quick)}
	doc.Manifest.GitDescribe = s.cfg.GitDescribe
	st := s.Stats()
	doc.Serve = &st
	b, err := doc.Marshal()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), "internal", 0)
		return
	}
	writeDoc(w, b)
}

// handleJobs lists queued/running jobs in fingerprint order.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.q.snapshot()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Fingerprint < jobs[j].Fingerprint })
	w.Header().Set("Content-Type", "application/json")
	b, _ := json.MarshalIndent(struct {
		Jobs []jobInfo `json:"jobs"`
	}{Jobs: jobs}, "", "  ")
	w.Write(append(b, '\n'))
}

// handleHealthz reports liveness and drain state.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":%q}\n", status)
}

// BeginDrain stops admission: the queue closes (new submissions get 503
// with a retry hint; memo hits still serve) and the worker finishes what
// was already admitted. Idempotent.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.q.close()
	}
}

// Drain performs graceful shutdown: stop admission, wait up to timeout
// for in-flight and queued jobs to finish, then cancel the survivors
// cooperatively. An unfinished job keeps its queue journal, so nothing is
// lost — the next start replays it. Returns nil on a clean drain.
func (s *Server) Drain(timeout time.Duration) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
	}
	s.cancel()
	select {
	case <-done:
		return fmt.Errorf("serve: drain exceeded %v; in-flight work cancelled (journals preserved for restart)", timeout)
	case <-time.After(10 * time.Second):
		return fmt.Errorf("serve: drain exceeded %v and in-flight work ignored cancellation", timeout)
	}
}

// Close shuts the daemon down for tests and embedders: drain admission,
// cancel whatever is still running, wait for the worker.
func (s *Server) Close() {
	s.BeginDrain()
	s.cancel()
	s.workerWG.Wait()
}

// ListenAndServe runs the daemon at cfg.Addr until SIGTERM/SIGINT, then
// drains gracefully (finish in-flight work, persist, refuse new work) and
// exits. The bound address is announced on stderr — with ":0" that line
// is how callers learn the port.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "protolat: serving on %s (store %s)\n", ln.Addr(), s.cfg.StoreDir)
	srv := &http.Server{Handler: s.Handler()}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	// Serve returns the moment Shutdown closes the listener, which is
	// before in-flight handlers have written their responses — returning
	// then would exit the process and cut those connections mid-reply. So
	// the drain goroutine reports only after Shutdown has finished waiting
	// for active handlers, and a signalled exit blocks on that report.
	draining := make(chan struct{})
	drainErr := make(chan error, 1)
	go func() {
		<-sigc
		close(draining)
		fmt.Fprintln(os.Stderr, "protolat: drain requested; refusing new work")
		err := s.Drain(s.cfg.DrainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		drainErr <- err
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	select {
	case <-draining:
		return <-drainErr
	default:
		return nil
	}
}
