package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/storage"
)

// newTestServer builds a daemon on a temp store and an httptest frontend,
// both torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	if cfg.GitDescribe == "" {
		cfg.GitDescribe = "test-checkout"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// post submits a spec body and returns the response plus its body.
func post(t *testing.T, ts *httptest.Server, spec string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}

// get fetches a daemon URL.
func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("get %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

const lintSpec = `{"kind":"lint"}`
const runSpec = `{"kind":"run","version":"STD","samples":1}`

// TestSubmitMemoizesByteIdentical: the first submission computes, the
// second is a store hit, and both bodies — plus the GET-by-fingerprint
// form — are byte-identical.
func TestSubmitMemoizesByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	r1, b1 := post(t, ts, lintSpec)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: %s: %s", r1.Status, b1)
	}
	if c := r1.Header.Get("X-Protolat-Cache"); c != "computed" {
		t.Fatalf("first submit cache = %q, want computed", c)
	}
	fp := r1.Header.Get("X-Protolat-Fingerprint")
	if fp == "" {
		t.Fatal("no fingerprint header")
	}

	r2, b2 := post(t, ts, lintSpec)
	if r2.StatusCode != http.StatusOK || r2.Header.Get("X-Protolat-Cache") != "hit" {
		t.Fatalf("second submit: %s cache=%q", r2.Status, r2.Header.Get("X-Protolat-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("memoized response is not byte-identical to the computed one")
	}

	r3, b3 := get(t, ts, "/v1/results/"+fp)
	if r3.StatusCode != http.StatusOK || !bytes.Equal(b1, b3) {
		t.Fatalf("GET by fingerprint: %s, identical=%v", r3.Status, bytes.Equal(b1, b3))
	}

	st := s.Stats()
	if st.Accepted != 1 || st.Completed != 1 || st.StoreMisses != 1 || st.StoreHits < 2 {
		t.Fatalf("stats after memoized pair: %+v", st)
	}
}

// TestSubmitMachinesMemoizes: the machines kind flows through the daemon —
// compute, memoize, and serve byte-identically — with the machine
// selection in the fingerprint and the machines section in the document.
func TestSubmitMachinesMemoizes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := `{"kind":"machines","models":"dec3000"}`
	r1, b1 := post(t, ts, spec)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: %s: %s", r1.Status, b1)
	}
	var doc struct {
		Machines *struct {
			Models []struct{ Name string }  `json:"models"`
			Cells  []struct{ Model string } `json:"cells"`
		} `json:"machines"`
	}
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if doc.Machines == nil || len(doc.Machines.Models) != 1 || len(doc.Machines.Cells) != 6 {
		t.Fatalf("machines section malformed: %+v", doc.Machines)
	}
	r2, b2 := post(t, ts, spec)
	if r2.StatusCode != http.StatusOK || r2.Header.Get("X-Protolat-Cache") != "hit" {
		t.Fatalf("second submit: %s cache=%q", r2.Status, r2.Header.Get("X-Protolat-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("memoized machines response is not byte-identical")
	}
}

// TestSubmitOptimizeMemoizes: the optimize kind flows through the daemon —
// the layout search runs under the proof gates, the document carries the
// optimize section with predicted-vs-measured numbers, and a re-submit is
// served byte-identically from the store.
func TestSubmitOptimizeMemoizes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := `{"kind":"optimize","models":"dec3000","budget":40}`
	r1, b1 := post(t, ts, spec)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: %s: %s", r1.Status, b1)
	}
	var doc struct {
		Optimize *struct {
			Budget int `json:"budget"`
			Cells  []struct {
				Model               string `json:"model"`
				RejectedEquivalence int    `json:"rejected_equivalence"`
				Candidates          []struct {
					PredictedRepl int     `json:"predicted_repl"`
					MeasuredTpUS  float64 `json:"measured_tp_us"`
				} `json:"candidates"`
			} `json:"cells"`
		} `json:"optimize"`
	}
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if doc.Optimize == nil || doc.Optimize.Budget != 40 || len(doc.Optimize.Cells) != 1 {
		t.Fatalf("optimize section malformed: %+v", doc.Optimize)
	}
	cell := doc.Optimize.Cells[0]
	if cell.Model != "dec3000" || cell.RejectedEquivalence < 1 || len(cell.Candidates) == 0 {
		t.Fatalf("optimize cell malformed: %+v", cell)
	}
	if cell.Candidates[0].MeasuredTpUS <= 0 {
		t.Fatalf("candidate missing confirmation measurement: %+v", cell.Candidates[0])
	}
	r2, b2 := post(t, ts, spec)
	if r2.StatusCode != http.StatusOK || r2.Header.Get("X-Protolat-Cache") != "hit" {
		t.Fatalf("second submit: %s cache=%q", r2.Status, r2.Header.Get("X-Protolat-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("memoized optimize response is not byte-identical")
	}
}

// TestStoreRoundTripByteIdentity pins the invariant memoization rests on:
// a Document.Marshal output survives the envelope store byte-exactly.
func TestStoreRoundTripByteIdentity(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	doc := &obs.Document{Manifest: core.NewManifest("protolat -lint -stack tcpip <&>", 3, core.Quick)}
	doc.Figures = []obs.Figure{{Name: "f", Title: "a<b & c>d", Text: "line1\nline2"}}
	want, err := doc.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := store.Put("abcd", want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := store.Get("abcd")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("store round trip changed bytes:\n--- put\n%s\n--- got\n%s", want, got)
	}
	if miss, err := store.Get("ffff"); err != nil || miss != nil {
		t.Fatalf("Get on missing fingerprint = (%v, %v), want (nil, nil)", miss, err)
	}
}

// TestCoalescing is the PR's exactly-once criterion: concurrent identical
// specs execute the underlying experiment once, everyone gets the same
// bytes, and the coalescing counter records the attach count.
func TestCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	gate := make(chan struct{})
	var executed int32
	var execMu sync.Mutex
	s.beforeRun = func(j *job) {
		execMu.Lock()
		executed++
		execMu.Unlock()
		<-gate
	}

	type reply struct {
		cache string
		body  []byte
		code  int
	}
	replies := make(chan reply, 3)
	for i := 0; i < 3; i++ {
		go func() {
			resp, body := post(t, ts, runSpec)
			replies <- reply{cache: resp.Header.Get("X-Protolat-Cache"), body: body, code: resp.StatusCode}
		}()
	}
	waitFor(t, "two coalesced submissions", func() bool { return s.Stats().Coalesced == 2 })
	close(gate)

	var got []reply
	for i := 0; i < 3; i++ {
		got = append(got, <-replies)
	}
	counts := map[string]int{}
	for _, r := range got {
		if r.code != http.StatusOK {
			t.Fatalf("submission failed: %d: %s", r.code, r.body)
		}
		counts[r.cache]++
		if !bytes.Equal(r.body, got[0].body) {
			t.Fatal("coalesced responses differ")
		}
	}
	if counts["computed"] != 1 || counts["coalesced"] != 2 {
		t.Fatalf("cache headers = %v, want 1 computed + 2 coalesced", counts)
	}
	execMu.Lock()
	n := executed
	execMu.Unlock()
	if n != 1 {
		t.Fatalf("underlying experiment executed %d times, want exactly once", n)
	}
	if st := s.Stats(); st.Coalesced != 2 || st.Accepted != 1 {
		t.Fatalf("stats after coalesced burst: %+v", st)
	}
}

// TestBackpressure: a full queue rejects with 429 and a deterministic
// Retry-After hint; the memo path stays open throughout.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueCap: 1})
	gate := make(chan struct{})
	s.beforeRun = func(j *job) { <-gate }

	done := make(chan struct{}, 2)
	go func() { post(t, ts, lintSpec); done <- struct{}{} }()
	waitFor(t, "first job in flight", func() bool { return s.Stats().InFlight == 1 })
	go func() { post(t, ts, `{"kind":"lint","stack":"rpc"}`); done <- struct{}{} }()
	waitFor(t, "second job queued", func() bool { return s.q.depth() == 1 })

	resp, body := post(t, ts, runSpec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit to full queue: %s: %s", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Reason != "backpressure" || eb.RetryAfterMS <= 0 {
		t.Fatalf("429 body = %s (err %v)", body, err)
	}
	if st := s.Stats(); st.RejectedFull != 1 {
		t.Fatalf("RejectedFull = %d, want 1", st.RejectedFull)
	}
	close(gate)
	<-done
	<-done
}

// TestRetryAfterDeterministic: the backoff hint is a pure function of
// fingerprint and depth — reproducible, bounded, jittered across specs.
func TestRetryAfterDeterministic(t *testing.T) {
	if a, b := retryAfterMS("abcd", 2), retryAfterMS("abcd", 2); a != b {
		t.Fatalf("same inputs gave %d and %d", a, b)
	}
	if retryAfterMS("abcd", 0) < 250 {
		t.Fatal("hint below base backoff")
	}
	if retryAfterMS("abcd", 100) > 30000 {
		t.Fatal("hint above cap")
	}
	if retryAfterMS("abcd", 3) == retryAfterMS("wxyz", 3) {
		t.Fatal("no jitter between distinct fingerprints (collision is possible but these two differ)")
	}
}

// TestDrain: BeginDrain refuses new work with 503 + retry hint, finishes
// what was admitted, and the in-flight result is persisted and delivered.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	gate := make(chan struct{})
	s.beforeRun = func(j *job) { <-gate }

	type reply struct {
		code int
		body []byte
	}
	first := make(chan reply, 1)
	go func() {
		resp, body := post(t, ts, lintSpec)
		first <- reply{resp.StatusCode, body}
	}()
	waitFor(t, "job in flight", func() bool { return s.Stats().InFlight == 1 })
	s.BeginDrain()

	if resp, body := post(t, ts, runSpec); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %s: %s", resp.Status, body)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	if resp, body := get(t, ts, "/v1/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "draining") {
		t.Fatalf("healthz while draining: %s: %s", resp.Status, body)
	}

	close(gate)
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	r := <-first
	if r.code != http.StatusOK {
		t.Fatalf("in-flight job during drain: %d: %s", r.code, r.body)
	}
	fp := Spec{Kind: "lint"}.Normalized().Fingerprint(s.cfg.GitDescribe)
	doc, err := s.store.Get(fp)
	if err != nil || doc == nil {
		t.Fatalf("drained job not persisted: (%v, %v)", doc != nil, err)
	}
	if !bytes.Equal(doc, r.body) {
		t.Fatal("persisted document differs from the delivered response")
	}
	// Memo hits still serve after drain.
	if resp, body := post(t, ts, lintSpec); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Protolat-Cache") != "hit" {
		t.Fatalf("memo hit while drained: %s cache=%q: %s", resp.Status, resp.Header.Get("X-Protolat-Cache"), body)
	}
}

// TestCrashRecoveryRun is the PR's crash criterion for plain jobs: a job
// journaled at admission but killed before completion is replayed on the
// next start, and the recovered document is byte-identical to one computed
// without the crash.
func TestCrashRecoveryRun(t *testing.T) {
	gd := "test-checkout"
	spec := Spec{Kind: "run", Version: "STD", Samples: 1}.Normalized()
	fp := spec.Fingerprint(gd)

	// Reference: the same spec computed by an undisturbed daemon.
	_, refTS := newTestServer(t, Config{})
	refResp, refBody := post(t, refTS, runSpec)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("reference run: %s: %s", refResp.Status, refBody)
	}

	// Crash state: the job journal exists, the document does not — exactly
	// what a kill -9 between admission and persist leaves behind.
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if err := store.PutJob(fp, spec); err != nil {
		t.Fatalf("PutJob: %v", err)
	}

	s, ts := newTestServer(t, Config{StoreDir: dir, GitDescribe: gd})
	if st := s.Stats(); st.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", st.Recovered)
	}
	// The worker persists the document before it drops the job journal
	// and counts the job completed only after both, so wait for the count.
	waitFor(t, "recovered job to complete", func() bool { return s.Stats().Completed >= 1 })
	resp, body := post(t, ts, runSpec)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Protolat-Cache") != "hit" {
		t.Fatalf("re-request after recovery: %s cache=%q", resp.Status, resp.Header.Get("X-Protolat-Cache"))
	}
	if !bytes.Equal(body, refBody) {
		t.Fatal("recovered document differs from the uninterrupted reference")
	}
	if _, err := os.Stat(store.jobPath(fp)); !os.IsNotExist(err) {
		t.Fatal("completed recovery left the job journal behind")
	}
}

// TestJournalTamper: a store file carried under another fingerprint — a
// document copied or renamed onto a different spec's path — surfaces as a
// typed 500 naming the identity mismatch, never as the other spec's
// answer.
func TestJournalTamper(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	tcpSpec, rpcSpec := lintSpec, `{"kind":"lint","stack":"rpc"}`
	var fps []string
	for _, spec := range []string{tcpSpec, rpcSpec} {
		resp, body := post(t, ts, spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %s: %s: %s", spec, resp.Status, body)
		}
		fps = append(fps, resp.Header.Get("X-Protolat-Fingerprint"))
	}
	data, err := os.ReadFile(s.store.docPath(fps[0]))
	if err != nil {
		t.Fatalf("read doc: %v", err)
	}
	if err := os.WriteFile(s.store.docPath(fps[1]), data, 0o644); err != nil {
		t.Fatalf("plant doc: %v", err)
	}
	for _, req := range []func() (*http.Response, []byte){
		func() (*http.Response, []byte) { return get(t, ts, "/v1/results/"+fps[1]) },
		func() (*http.Response, []byte) { return post(t, ts, rpcSpec) },
	} {
		resp, body := req()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("misplaced document served %s: %.200s", resp.Status, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Reason != "journal-mismatch" {
			t.Fatalf("misplaced document reason = %q (err %v), want journal-mismatch", eb.Reason, err)
		}
	}
}

// TestStoreTamper: a corrupted memoized document is refused with a typed
// journal error on both retrieval paths.
func TestStoreTamper(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	r1, _ := post(t, ts, lintSpec)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("submit: %s", r1.Status)
	}
	fp := r1.Header.Get("X-Protolat-Fingerprint")
	data, err := os.ReadFile(s.store.docPath(fp))
	if err != nil {
		t.Fatalf("read doc: %v", err)
	}
	if err := os.WriteFile(s.store.docPath(fp), data[:len(data)/2], 0o644); err != nil {
		t.Fatalf("tamper doc: %v", err)
	}
	for _, req := range []func() (*http.Response, []byte){
		func() (*http.Response, []byte) { return get(t, ts, "/v1/results/"+fp) },
		func() (*http.Response, []byte) { return post(t, ts, lintSpec) },
	} {
		resp, body := req()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("tampered store served %s: %s", resp.Status, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || !strings.HasPrefix(eb.Reason, "journal-") {
			t.Fatalf("tamper reason = %q (err %v), want journal-*", eb.Reason, err)
		}
	}
}

// TestValidation: malformed and invalid specs are 400s with the offending
// field named, before any work is admitted.
func TestValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := []struct {
		name, spec, want string
	}{
		{"bad json", `{`, "parse"},
		{"unknown field", `{"kind":"lint","bogus":1}`, "parse"},
		{"missing kind", `{}`, "spec"},
		{"unknown kind", `{"kind":"frobnicate"}`, "spec"},
		{"bad stack", `{"kind":"lint","stack":"osi"}`, "spec"},
		{"bad version", `{"kind":"run","version":"NOPE"}`, "spec"},
		{"bad table", `{"kind":"table","table":12}`, "spec"},
		{"bad rates", `{"kind":"faults","rates":"0.5,2.0"}`, "spec"},
		{"removed policy", `{"kind":"run","policy":"adaptive"}`, "parse"},
		{"removed soak shape", `{"kind":"faults","soak_batches":1}`, "parse"},
		{"removed kind", `{"kind":"soak"}`, "spec"},
		{"bad model", `{"kind":"machines","models":"pdp11"}`, "spec"},
		{"dup model", `{"kind":"machines","models":"dec3000,dec3000"}`, "spec"},
		{"bad machine rates", `{"kind":"machines","rates":"-1"}`, "spec"},
	}
	for _, tc := range cases {
		resp, body := post(t, ts, tc.spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %s, want 400 (body %s)", tc.name, resp.Status, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Reason != tc.want {
			t.Fatalf("%s: reason = %q (err %v), want %q", tc.name, eb.Reason, err, tc.want)
		}
	}
	if st := s.Stats(); st.Accepted != 0 {
		t.Fatalf("invalid specs were admitted: %+v", st)
	}
}

// TestFingerprintCanonicalization: semantically identical specs coalesce
// onto one fingerprint; changed semantics or checkout do not.
func TestFingerprintCanonicalization(t *testing.T) {
	a := Spec{Kind: "run", Version: "all", Samples: 3}.Fingerprint("v1")
	b := Spec{Kind: "RUN", Version: "ALL", TimeoutMS: 9000}.Fingerprint("v1")
	if a != b {
		t.Fatal("case, defaults, and timeout changed the fingerprint")
	}
	if fp := (Spec{Kind: "run", Version: "STD"}).Fingerprint("v1"); fp == a {
		t.Fatal("different version, same fingerprint")
	}
	if fp := (Spec{Kind: "run", Version: "all", Samples: 3}).Fingerprint("v2"); fp == a {
		t.Fatal("different checkout, same fingerprint")
	}
	// Irrelevant fields are zeroed per kind.
	if (Spec{Kind: "lint", Seed: 99, Samples: 7}).Fingerprint("v1") != (Spec{Kind: "lint"}).Fingerprint("v1") {
		t.Fatal("fields irrelevant to lint changed its fingerprint")
	}
	// The machine selection is a semantic input: empty and "all" share a
	// fingerprint, a named subset does not.
	ma := Spec{Kind: "machines"}.Fingerprint("v1")
	if (Spec{Kind: "machines", Models: "ALL"}).Fingerprint("v1") != ma {
		t.Fatal("machines \"\" and \"all\" fingerprint differently")
	}
	if (Spec{Kind: "machines", Models: "dec3000,modern"}).Fingerprint("v1") == ma {
		t.Fatal("machine subset shares the full matrix's fingerprint")
	}
	// The search budget is semantic for optimize — the default spelled
	// out fingerprints like the default relied on, another budget not.
	oa := Spec{Kind: "optimize"}.Fingerprint("v1")
	if (Spec{Kind: "optimize", Budget: optimize.DefaultBudget, Models: "ALL"}).Fingerprint("v1") != oa {
		t.Fatal("optimize default budget spelled out fingerprints differently")
	}
	if (Spec{Kind: "optimize", Budget: 40}).Fingerprint("v1") == oa {
		t.Fatal("different optimize budget, same fingerprint")
	}
	if (Spec{Kind: "run", Budget: 40}).Fingerprint("v1") != (Spec{Kind: "run"}).Fingerprint("v1") {
		t.Fatal("budget is irrelevant to run but changed its fingerprint")
	}
	// A kind that does not read the stack or the quality gives a valid
	// value the default's fingerprint; an invalid one is still a
	// *SpecError.
	for _, tc := range []struct {
		field string
		set   func(s *Spec, v string)
		valid string
		kinds []string
	}{
		{"stack", func(s *Spec, v string) { s.Stack = v }, "RPC", []string{"table", "figure", "all", "throughput", "multiconn"}},
		{"quality", func(s *Spec, v string) { s.Quality = v }, "Paper", []string{"figure", "lint", "throughput", "multiconn"}},
	} {
		for _, kind := range tc.kinds {
			def, valid, invalid := Spec{Kind: kind, Table: 1}, Spec{Kind: kind, Table: 1}, Spec{Kind: kind, Table: 1}
			tc.set(&valid, tc.valid)
			tc.set(&invalid, "bogus")
			if valid.Fingerprint("v1") != def.Fingerprint("v1") {
				t.Errorf("%s: %s %s fingerprints apart from the default", kind, tc.field, tc.valid)
			}
			var se *SpecError
			if err := invalid.Normalized().Validate(); !errors.As(err, &se) || se.Field != tc.field {
				t.Errorf("%s: invalid %s: got %v, want a *SpecError on %s", kind, tc.field, err, tc.field)
			}
		}
	}
	if (Spec{Kind: "run", Stack: "rpc"}).Fingerprint("v1") == (Spec{Kind: "run"}).Fingerprint("v1") {
		t.Fatal("stack is semantic for run but did not change its fingerprint")
	}
}

// TestStatsDocument: GET /v1/stats returns a schema-conformant document
// with the serve section populated.
func TestStatsDocument(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueCap: 7})
	post(t, ts, lintSpec)
	resp, body := get(t, ts, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %s", resp.Status)
	}
	var doc obs.Document
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("stats document does not parse: %v", err)
	}
	if doc.Serve == nil {
		t.Fatal("stats document has no serve section")
	}
	if doc.Serve.QueueCap != 7 || doc.Serve.Accepted != 1 || doc.Serve.Completed != 1 {
		t.Fatalf("serve stats = %+v", doc.Serve)
	}
	if doc.Manifest.Schema != obs.SchemaVersion || doc.Manifest.Command != "protolat -serve" {
		t.Fatalf("stats manifest = %+v", doc.Manifest)
	}
}

// TestNoOrphanJobJournal: the job journal is written inside admission's
// critical section, before any worker can see the job — so by the time a
// computed 200 is on the wire the journal has been written and dropped,
// and no <fp>.job.json lingers. The old order (enqueue, then journal) let
// a fast job finish before its journal landed, stranding an orphan that
// made store globs lie about pending work.
func TestNoOrphanJobJournal(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		resp, body := post(t, ts, lintSpec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: %s: %s", i, resp.Status, body)
		}
		fp := resp.Header.Get("X-Protolat-Fingerprint")
		if _, err := s.store.fs.Stat(s.store.jobPath(fp)); !os.IsNotExist(err) {
			t.Fatalf("submit %d (cache %s): job journal survived its 200 response (err %v)",
				i, resp.Header.Get("X-Protolat-Cache"), err)
		}
	}
}

// TestJobsEndpoint: queued and running jobs are listed in fingerprint
// order with their kinds.
func TestJobsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	gate := make(chan struct{})
	s.beforeRun = func(j *job) { <-gate }
	done := make(chan struct{}, 2)
	go func() { post(t, ts, lintSpec); done <- struct{}{} }()
	go func() { post(t, ts, runSpec); done <- struct{}{} }()
	waitFor(t, "two jobs admitted", func() bool {
		return s.Stats().InFlight == 1 && s.q.depth() == 1
	})
	_, body := get(t, ts, "/v1/jobs")
	var listing struct {
		Jobs []jobInfo `json:"jobs"`
	}
	if err := json.Unmarshal(body, &listing); err != nil || len(listing.Jobs) != 2 {
		t.Fatalf("jobs listing = %s (err %v), want 2 jobs", body, err)
	}
	if listing.Jobs[0].Fingerprint > listing.Jobs[1].Fingerprint {
		t.Fatal("jobs listing not in fingerprint order")
	}
	close(gate)
	<-done
	<-done
}

// TestSpecErrorClassification pins the degradation ladder's error→status
// mapping.
func TestSpecErrorClassification(t *testing.T) {
	cases := []struct {
		err    error
		status int
		reason string
	}{
		{&SpecError{Field: "kind", Msg: "x"}, 400, "spec"},
		{&core.BudgetError{Sample: 1, Budget: 10}, 422, "budget"},
		{&storage.EnvelopeError{Path: "p", Reason: "corrupt"}, 500, "journal-corrupt"},
		{fmt.Errorf("wrap: %w", &storage.EnvelopeError{Path: "p", Reason: "mismatch"}), 500, "journal-mismatch"},
		{errors.New("boom"), 500, "internal"},
	}
	for _, tc := range cases {
		status, reason := classify(tc.err)
		if status != tc.status || reason != tc.reason {
			t.Fatalf("classify(%v) = (%d, %q), want (%d, %q)", tc.err, status, reason, tc.status, tc.reason)
		}
	}
}
