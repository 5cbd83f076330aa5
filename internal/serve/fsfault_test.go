package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// testDoc builds a deterministic fake document payload of roughly the
// requested size, shaped like the JSON the store expects.
func testDoc(tag string, size int) []byte {
	pad := strings.Repeat("x", size)
	return []byte(fmt.Sprintf(`{"tag":%q,"pad":%q}`, tag, pad))
}

// storeState reads every memoizable fingerprint's Get result so crash
// tests can compare recovered stores value by value.
func storeState(t *testing.T, st *Store, fps []string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, fp := range fps {
		doc, err := st.Get(fp)
		if err != nil {
			t.Fatalf("Get(%s): %v", fp, err)
		}
		if doc != nil {
			out[fp] = doc
		}
	}
	return out
}

// TestRunJobStoreCrashEnumeration is the tentpole claim for the daemon's
// write path: crash after every FS operation in a full job lifecycle
// (journal the job, persist the document, drop the journal entries) and
// assert that a restarted store always recovers to a coherent state — the
// document is either absent or byte-identical to the reference, never a
// readable blend, and Recover itself never errors or panics.
func TestRunJobStoreCrashEnumeration(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-point enumeration is the slow exhaustive path")
	}
	const fp = "deadbeefcafe0001"
	spec := Spec{Kind: "lint"}.Normalized()

	// Reference: the workload on a clean FS.
	refFS := storage.NewMemFS()
	refStore, err := OpenStoreFS(refFS, "store", 0)
	if err != nil {
		t.Fatalf("reference store: %v", err)
	}
	doc := testDoc("job", 64)
	if err := refStore.PutJob(fp, spec); err != nil {
		t.Fatalf("reference PutJob: %v", err)
	}
	if err := refStore.Put(fp, doc); err != nil {
		t.Fatalf("reference Put: %v", err)
	}
	refStore.DropJob(fp)
	refDoc, err := refStore.Get(fp)
	if err != nil || refDoc == nil {
		t.Fatalf("reference Get: %v", err)
	}

	workload := func(fsys storage.FS) error {
		st, err := OpenStoreFS(fsys, "store", 0)
		if err != nil {
			return err
		}
		if err := st.PutJob(fp, spec); err != nil {
			return err
		}
		if err := st.Put(fp, doc); err != nil {
			return err
		}
		st.DropJob(fp)
		return nil
	}
	sawPre, sawPost := false, false
	n, err := storage.Enumerate(storage.NewMemFS(), 31, workload, func(k int, crashed *storage.MemFS) error {
		st, err := OpenStoreFS(crashed, "store", 0)
		if err != nil {
			t.Fatalf("crash at op %d: reopen: %v", k, err)
		}
		jobs, err := st.Recover()
		if err != nil {
			t.Fatalf("crash at op %d: Recover: %v", k, err)
		}
		got, err := st.Get(fp)
		if err != nil {
			t.Fatalf("crash at op %d: Get after recovery: %v", k, err)
		}
		switch {
		case got == nil:
			// Pre-persist state: if the job journal survived, recovery
			// must replay exactly this job.
			sawPre = true
			for _, j := range jobs {
				if j.Fingerprint != fp {
					t.Fatalf("crash at op %d: recovered alien job %s", k, j.Fingerprint)
				}
			}
		case bytes.Equal(got, refDoc):
			sawPost = true
			if len(jobs) != 0 {
				t.Fatalf("crash at op %d: document persisted but job still pending", k)
			}
		default:
			t.Fatalf("crash at op %d: third outcome: recovered document differs from reference", k)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if n < 10 {
		t.Fatalf("workload performed only %d FS ops; the lifecycle should be longer", n)
	}
	if !sawPre || !sawPost {
		t.Fatalf("enumeration never saw both sides of the persist (pre=%v post=%v)", sawPre, sawPost)
	}
}

// TestEvictionCrashEnumeration: eviction under a byte cap is itself
// crash-safe — crash after every FS op of an evicting Put and every
// surviving document must read back byte-identical to its reference value
// or be cleanly absent, and a journaled-but-unserved job's document always
// survives.
func TestEvictionCrashEnumeration(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-point enumeration is the slow exhaustive path")
	}
	fps := []string{"aaaa000000000001", "bbbb000000000002", "cccc000000000003"}
	docs := map[string][]byte{
		fps[0]: testDoc("a", 200),
		fps[1]: testDoc("b", 200),
		fps[2]: testDoc("c", 200),
	}
	pinned := fps[0] // has a live job journal: never evictable
	spec := Spec{Kind: "lint"}.Normalized()

	// Base state: two resident docs (one pinned by a pending job), cap
	// sized so adding the third forces an eviction.
	base := storage.NewMemFS()
	seed, err := OpenStoreFS(base, "store", 0)
	if err != nil {
		t.Fatalf("seed store: %v", err)
	}
	if err := seed.Put(fps[0], docs[fps[0]]); err != nil {
		t.Fatalf("seed put: %v", err)
	}
	if err := seed.Put(fps[1], docs[fps[1]]); err != nil {
		t.Fatalf("seed put: %v", err)
	}
	if err := seed.PutJob(pinned, spec); err != nil {
		t.Fatalf("seed job: %v", err)
	}
	var perDoc int64
	if fi, err := base.Stat(seed.docPath(fps[0])); err == nil {
		perDoc = fi.Size()
	}
	capBytes := perDoc*2 + perDoc/2 // three docs never fit, two do

	refs := storeState(t, seed, fps)

	workload := func(fsys storage.FS) error {
		st, err := OpenStoreFS(fsys, "store", capBytes)
		if err != nil {
			return err
		}
		return st.Put(fps[2], docs[fps[2]])
	}

	// Post-state reference: the workload run undisturbed on a clone gives
	// the exact Get bytes each fingerprint may legally land on.
	postFS := base.Clone()
	if err := workload(postFS); err != nil {
		t.Fatalf("reference workload: %v", err)
	}
	postStore, err := OpenStoreFS(postFS, "store", capBytes)
	if err != nil {
		t.Fatalf("reference reopen: %v", err)
	}
	post := storeState(t, postStore, fps)
	if post[fps[1]] != nil {
		t.Fatal("reference workload did not evict the LRU entry")
	}

	n, err := storage.Enumerate(base, 41, workload, func(k int, crashed *storage.MemFS) error {
		st, err := OpenStoreFS(crashed, "store", capBytes)
		if err != nil {
			t.Fatalf("crash at op %d: reopen: %v", k, err)
		}
		if _, err := st.Recover(); err != nil {
			t.Fatalf("crash at op %d: Recover: %v", k, err)
		}
		for _, fp := range fps {
			got, err := st.Get(fp)
			if err != nil {
				t.Fatalf("crash at op %d: Get(%s): %v", k, fp, err)
			}
			// Every fingerprint must read back as its pre-workload bytes,
			// its post-workload bytes, or be cleanly absent (if absence is
			// a legal pre or post state for it) — never a blend.
			switch {
			case got == nil:
				if refs[fp] != nil && post[fp] != nil {
					t.Fatalf("crash at op %d: %s lost (present in both pre and post state)", k, fp)
				}
			case bytes.Equal(got, refs[fp]) || bytes.Equal(got, post[fp]):
			default:
				t.Fatalf("crash at op %d: %s recovered to a third state", k, fp)
			}
		}
		pinDoc, err := st.Get(pinned)
		if err != nil {
			t.Fatalf("crash at op %d: Get(pinned): %v", k, err)
		}
		if pinDoc == nil {
			t.Fatalf("crash at op %d: eviction removed a journaled-but-unserved job's document", k)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if n < 5 {
		t.Fatalf("evicting Put performed only %d FS ops", n)
	}
}

// TestStoreEvictionLRU: filling a capped store evicts the least recently
// used document — recency refreshed by Get — while survivors still serve
// byte-identically and the eviction counters account for what left.
func TestStoreEvictionLRU(t *testing.T) {
	mem := storage.NewMemFS()
	st, err := OpenStoreFS(mem, "store", 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fps := []string{"aaaa000000000001", "bbbb000000000002", "cccc000000000003"}
	for _, fp := range fps[:2] {
		if err := st.Put(fp, testDoc(fp[:4], 200)); err != nil {
			t.Fatalf("put %s: %v", fp, err)
		}
	}
	var perDoc int64
	if fi, err := mem.Stat(st.docPath(fps[0])); err == nil {
		perDoc = fi.Size()
	}

	// Reopen with a two-doc cap; initial recency is lexicographic, then
	// a Get refreshes A so B becomes the LRU victim.
	st, err = OpenStoreFS(mem, "store", perDoc*2+perDoc/2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	refA, err := st.Get(fps[0])
	if err != nil || refA == nil {
		t.Fatalf("Get A: %v", err)
	}
	if err := st.Put(fps[2], testDoc("cccc", 200)); err != nil {
		t.Fatalf("put C: %v", err)
	}
	if doc, err := st.Get(fps[1]); err != nil || doc != nil {
		t.Fatalf("LRU victim B still resident (doc=%v err=%v)", doc != nil, err)
	}
	gotA, err := st.Get(fps[0])
	if err != nil || !bytes.Equal(gotA, refA) {
		t.Fatalf("survivor A no longer serves byte-identically (err %v)", err)
	}
	if doc, err := st.Get(fps[2]); err != nil || doc == nil {
		t.Fatalf("just-written C missing (err %v)", err)
	}
	resident, capBytes, evicted, freed := st.Bytes()
	if evicted != 1 || freed <= 0 {
		t.Fatalf("eviction counters: evicted=%d freed=%d", evicted, freed)
	}
	if resident > capBytes {
		t.Fatalf("resident %d still exceeds cap %d", resident, capBytes)
	}
}

// TestWorkersByteIdentical is the multi-worker acceptance criterion: a
// batch of distinct specs submitted to a 4-worker daemon produces
// documents byte-identical to a single-worker daemon's, and the stats
// ledger still balances.
func TestWorkersByteIdentical(t *testing.T) {
	specs := []string{
		`{"kind":"run","version":"STD","samples":1}`,
		`{"kind":"run","version":"ALL","samples":1}`,
		`{"kind":"run","version":"STD","samples":2}`,
		`{"kind":"run","version":"PIN","samples":1}`,
		`{"kind":"lint"}`,
	}

	_, ref := newTestServer(t, Config{Workers: 1})
	want := map[string][]byte{}
	for _, spec := range specs {
		resp, body := post(t, ref, spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=1 %s: %s: %s", spec, resp.Status, body)
		}
		want[spec] = body
	}

	s4, ts4 := newTestServer(t, Config{Workers: 4})
	var wg sync.WaitGroup
	var mu sync.Mutex
	got := map[string][]byte{}
	for _, spec := range specs {
		wg.Add(1)
		go func(spec string) {
			defer wg.Done()
			resp, err := http.Post(ts4.URL+"/v1/experiments", "application/json", strings.NewReader(spec))
			if err != nil {
				t.Errorf("workers=4 %s: %v", spec, err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("workers=4 %s: %s: %s", spec, resp.Status, buf.String())
				return
			}
			mu.Lock()
			got[spec] = buf.Bytes()
			mu.Unlock()
		}(spec)
	}
	wg.Wait()
	for _, spec := range specs {
		if !bytes.Equal(want[spec], got[spec]) {
			t.Fatalf("workers=4 document for %s differs from workers=1", spec)
		}
	}
	st := s4.Stats()
	if st.Workers != 4 {
		t.Fatalf("stats workers = %d, want 4", st.Workers)
	}
	if st.Completed+st.Failed != st.Accepted+st.Coalesced {
		t.Fatalf("stats ledger unbalanced: %+v", st)
	}
}

// TestDaemonENOSPCDegraded: an injected ENOSPC on document writes pushes
// the full daemon path into degraded persistence — the result still
// serves, flagged, and the journal entry survives for recomputation.
func TestDaemonENOSPCDegraded(t *testing.T) {
	fault, err := storage.FromEnv("enospc=*.doc.json*")
	if err != nil {
		t.Fatalf("FromEnv: %v", err)
	}
	s, ts := newTestServer(t, Config{FS: fault})
	resp, body := post(t, ts, lintSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit under ENOSPC: %s: %s", resp.Status, body)
	}
	if resp.Header.Get("X-Protolat-Degraded") != "store" {
		t.Fatal("ENOSPC persist not flagged degraded")
	}
	st := s.Stats()
	if st.DegradedPersists != 1 {
		t.Fatalf("degraded_persists = %d, want 1", st.DegradedPersists)
	}
	fp := resp.Header.Get("X-Protolat-Fingerprint")
	if _, err := s.store.fs.Stat(s.store.jobPath(fp)); err != nil {
		t.Fatalf("degraded job's journal entry missing: %v", err)
	}
}

// TestRecoverEdgeCases: the startup sweep survives every malformed
// leftover the crash model can produce — multiple torn temp files from
// distinct fingerprints, a journaled spec that no longer validates under
// this binary (schema drift), journaled specs naming fields this binary
// no longer has, and 0-byte envelopes — with typed errors or clean
// sweeps, never a panic and never a replay of a different job.
func TestRecoverEdgeCases(t *testing.T) {
	mem := storage.NewMemFS()
	st, err := OpenStoreFS(mem, "store", 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// Two torn temp files from distinct fingerprints.
	for _, name := range []string{"store/aaaa000000000001.doc.json.tmp", "store/bbbb000000000002.job.json.tmp"} {
		if err := mem.WriteFile(name, []byte(`{"torn`), 0o644); err != nil {
			t.Fatalf("plant %s: %v", name, err)
		}
	}
	// A journaled job whose spec parses but no longer canonicalizes
	// (schema drift).
	driftFP := "cccc000000000003"
	driftSpec := Spec{Kind: "run", Version: "NOPE"}
	if err := storage.SaveEnvelopeFS(mem, st.jobPath(driftFP), jobMagic, storeSchema, driftFP, driftSpec); err != nil {
		t.Fatalf("plant drift job: %v", err)
	}
	// Jobs journaled by a binary whose spec had fields this one lacks:
	// a soak-shaped run would otherwise replay as a different study, an
	// adaptive-timer run as a fixed-timer one, a deadlined lint as an
	// unbounded one.
	removedFPs := map[string]string{
		"cccc000000000007": `{"kind":"run","version":"ALL","samples":3,"soak_roundtrips":4}`,
		"cccc000000000008": `{"kind":"soak","seed":5,"soak_batches":1,"soak_roundtrips":4}`,
		"cccc000000000009": `{"kind":"run","stack":"tcpip","policy":"adaptive"}`,
		"cccc00000000000a": `{"kind":"lint","timeout_ms":5000}`,
	}
	for fp, spec := range removedFPs {
		if err := storage.SaveEnvelopeFS(mem, st.jobPath(fp), jobMagic, storeSchema, fp, json.RawMessage(spec)); err != nil {
			t.Fatalf("plant job %s: %v", spec, err)
		}
	}
	// A 0-byte job envelope and a 0-byte document envelope.
	emptyJobFP := "dddd000000000004"
	emptyDocFP := "eeee000000000005"
	if err := mem.WriteFile(st.jobPath(emptyJobFP), nil, 0o644); err != nil {
		t.Fatalf("plant empty job: %v", err)
	}
	if err := mem.WriteFile(st.docPath(emptyDocFP), nil, 0o644); err != nil {
		t.Fatalf("plant empty doc: %v", err)
	}
	// One healthy pending job that must survive all of the above.
	goodFP := "ffff000000000006"
	if err := st.PutJob(goodFP, Spec{Kind: "lint"}.Normalized()); err != nil {
		t.Fatalf("plant good job: %v", err)
	}

	jobs, err := st.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(jobs) != 1 || jobs[0].Fingerprint != goodFP {
		t.Fatalf("recovered jobs = %+v, want exactly %s", jobs, goodFP)
	}
	if tmps, _ := mem.Glob("store/*.tmp"); len(tmps) != 0 {
		t.Fatalf("torn temp files survived recovery: %v", tmps)
	}
	swept := []string{st.jobPath(driftFP), st.jobPath(emptyJobFP)}
	for fp := range removedFPs {
		swept = append(swept, st.jobPath(fp))
	}
	for _, p := range swept {
		if _, err := mem.Stat(p); err == nil {
			t.Fatalf("%s survived recovery", p)
		}
	}
	// The empty document envelope is a typed corrupt error on read —
	// never a panic, never silently served.
	_, gerr := st.Get(emptyDocFP)
	var ee *storage.EnvelopeError
	if !errors.As(gerr, &ee) || ee.Reason != "corrupt" {
		t.Fatalf("empty doc Get = %v, want EnvelopeError{corrupt}", gerr)
	}
}

// TestSubmitRetryFlaky: the retry client follows the server's Retry-After
// hints with capped exponential backoff against a scripted flaky server,
// and with Retries=0 preserves the old fail-fast behavior.
func TestSubmitRetryFlaky(t *testing.T) {
	var calls int
	var failAll bool
	var mu sync.Mutex
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		always := failAll
		mu.Unlock()
		switch {
		case always || n == 1:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(errorBody{Error: "queue full", Reason: "backpressure", RetryAfterMS: 100})
		case n == 2:
			// Header-only hint: no JSON body.
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining"))
		default:
			w.Header().Set("X-Protolat-Fingerprint", "feed000000000001")
			w.Header().Set("X-Protolat-Cache", "computed")
			w.Write([]byte(`{"ok":true}`))
		}
	}))
	defer flaky.Close()
	addr := strings.TrimPrefix(flaky.URL, "http://")

	var delays []time.Duration
	res, err := Submit(addr, []byte(lintSpec), SubmitOptions{
		Retries: 3,
		Sleep:   func(d time.Duration) { delays = append(delays, d) },
	})
	if err != nil {
		t.Fatalf("Submit with retries: %v", err)
	}
	if string(res.Body) != `{"ok":true}` || res.Cache != "computed" {
		t.Fatalf("result = %+v", res)
	}
	// Attempt 0 slept the body hint (100ms << 0); attempt 1 had only the
	// header hint (1s << 1).
	want := []time.Duration{100 * time.Millisecond, 2 * time.Second}
	if len(delays) != len(want) || delays[0] != want[0] || delays[1] != want[1] {
		t.Fatalf("backoff schedule = %v, want %v", delays, want)
	}

	// Retries=0 fails on the first rejection, surfacing the hint.
	mu.Lock()
	calls = 0
	mu.Unlock()
	_, err = Submit(addr, []byte(lintSpec), SubmitOptions{
		Sleep: func(d time.Duration) { t.Fatalf("Retries=0 slept %v", d) },
	})
	if err == nil || !strings.Contains(err.Error(), "Retry-After") {
		t.Fatalf("Retries=0 error = %v, want immediate failure with hint", err)
	}

	// Exhausted retries fail with the count in the message.
	mu.Lock()
	failAll = true
	mu.Unlock()
	var n2 int
	_, err = Submit(addr, []byte(lintSpec), SubmitOptions{
		Retries: 2,
		Sleep:   func(time.Duration) { n2++ },
	})
	if err == nil || !strings.Contains(err.Error(), "after 2 retries") {
		t.Fatalf("exhausted retries error = %v", err)
	}
	if n2 != 2 {
		t.Fatalf("slept %d times, want 2", n2)
	}
}

// TestRetryDelayMS: the backoff math is deterministic, hint-seeded, and
// capped.
func TestRetryDelayMS(t *testing.T) {
	for _, tc := range []struct {
		hint, attempt, want int
	}{
		{0, 0, 250},       // no hint: default base
		{100, 0, 100},     // hint passes through on the first retry
		{100, 3, 800},     // doubles per attempt
		{30000, 1, 30000}, // capped
		{1000, 20, 30000}, // huge attempt counts saturate, no overflow
	} {
		if got := retryDelayMS(tc.hint, tc.attempt); got != tc.want {
			t.Fatalf("retryDelayMS(%d, %d) = %d, want %d", tc.hint, tc.attempt, got, tc.want)
		}
	}
}
