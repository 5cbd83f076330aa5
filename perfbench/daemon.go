package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/storage"
)

// daemonRate is the open loop's offered load in requests per second.
const daemonRate = 20

// coldEvery places one fresh spec, which the daemon must compute, in each
// block of this many requests; the rest are memo hits on the hot set.
const coldEvery = 10

// daemonDescribe is the constant checkout identity the daemon salts its
// fingerprints with, so hot-set bodies are the same on every checkout.
const daemonDescribe = "perfbench"

// hotSet is the memoized traffic, filled during set-up: single runs,
// tables and lints, none of which depends on the workload seed.
var hotSet = []struct {
	key  string
	spec serve.Spec
}{
	{"daemon.run.tcpip.STD", serve.Spec{Kind: "run", Version: "STD"}},
	{"daemon.run.tcpip.ALL", serve.Spec{Kind: "run", Version: "ALL"}},
	{"daemon.run.rpc.ALL", serve.Spec{Kind: "run", Stack: "rpc", Version: "ALL"}},
	{"daemon.table4", serve.Spec{Kind: "table", Table: 4}},
	{"daemon.lint.tcpip", serve.Spec{Kind: "lint"}},
	{"daemon.lint.rpc", serve.Spec{Kind: "lint", Stack: "rpc"}},
}

// daemonSession is an in-process daemon on loopback with a memory-backed
// store and one worker, plus the client that loads it.
type daemonSession struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client

	hotReq  [][]byte // request bodies of the hot set
	hotWant []string // expected digest of each hot-set response
	fresh   rng      // draws the seeds of fresh specs
}

func startDaemon(seed uint64) (*daemonSession, error) {
	srv, err := serve.New(serve.Config{
		StoreDir:    "store",
		FS:          storage.NewMemFS(),
		Workers:     1,
		QueueCap:    64,
		GitDescribe: daemonDescribe,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	nproc := runtime.NumCPU()
	d := &daemonSession{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/experiments",
		client: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc},
		},
		fresh: rng{state: seed ^ 0x5eed},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

func (d *daemonSession) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.served
	d.srv.Close()
	d.client.CloseIdleConnections()
}

// post submits one spec and returns the status, the cache header and the
// body.
func (d *daemonSession) post(body []byte) (int, string, []byte, error) {
	resp, err := d.client.Post(d.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Protolat-Cache"), b, err
}

// fill computes the hot set through the daemon and fixes each body's
// expected digest.
func (d *daemonSession) fill(refs references) (map[string][]byte, error) {
	bodies := map[string][]byte{}
	for _, h := range hotSet {
		req, err := json.Marshal(h.spec)
		if err != nil {
			return nil, err
		}
		status, _, b, err := d.post(req)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("hot set %s: status %d: %s", h.key, status, b)
		}
		want := refs.expect(h.key, b)
		if digest(b) != want {
			return nil, fmt.Errorf("hot set %s: body differs from its reference", h.key)
		}
		d.hotReq = append(d.hotReq, req)
		d.hotWant = append(d.hotWant, want)
		bodies[h.key] = b
	}
	return bodies, nil
}

func setupDaemon(seed uint64, refs references) (session, error) {
	d, err := startDaemon(seed)
	if err != nil {
		return nil, err
	}
	if _, err := d.fill(refs); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// hotSetBodies computes the hot-set bodies for the reference file.
func hotSetBodies() (map[string][]byte, error) {
	d, err := startDaemon(defaultSeed)
	if err != nil {
		return nil, err
	}
	defer d.close()
	return d.fill(references{})
}

// request is one scheduled submission of the open loop.
type request struct {
	due  time.Time
	body []byte
	hot  int // index into the hot set, or -1 for a fresh spec
	// Filled in by the client.
	ms     float64 // from due to the last response byte
	status int
	cache  string
	resp   []byte
	err    error
}

func (d *daemonSession) measure(dur time.Duration, tr *tracer) (*outcome, error) {
	n := max(int(dur.Seconds()*daemonRate), coldEvery)
	reqs := make([]*request, n)
	// Hot requests cycle through the hot set from a seeded start, so every
	// seed sends each hot spec equally often.
	next := d.fresh.intn(len(d.hotReq))
	for b := 0; b < n; b += coldEvery {
		cold := b + d.fresh.intn(coldEvery)
		for i := b; i < min(b+coldEvery, n); i++ {
			r := &request{hot: -1}
			if i == cold {
				spec := serve.Spec{Kind: "faults", Seed: d.fresh.next()>>1 | 1}
				body, err := json.Marshal(spec)
				if err != nil {
					return nil, err
				}
				r.body = body
			} else {
				r.hot = next % len(d.hotReq)
				next++
				r.body = d.hotReq[r.hot]
			}
			reqs[i] = r
		}
	}

	// One client goroutine per CPU, each with its own connection, takes
	// requests as the generator releases them; the channel holds every
	// request so the generator never blocks.
	ch := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				r := reqs[i]
				on := tr != nil && i%2 == 0
				sp := -1
				if on {
					sp = tr.begin("serve.request", -1)
				}
				r.status, r.cache, r.resp, r.err = d.post(r.body)
				if on {
					tr.endTagged(sp, r.cache)
				}
				r.ms = float64(time.Since(r.due)) / 1e6
			}
		}()
	}
	a0 := allocBytes()
	lag := make([]float64, n)
	start := time.Now()
	for i, r := range reqs {
		r.due = start.Add(time.Duration(float64(i) / daemonRate * float64(time.Second)))
		time.Sleep(time.Until(r.due))
		lag[i] = float64(time.Since(r.due)) / 1e6
		ch <- i
	}
	close(ch)
	wg.Wait()
	allocs := float64(allocBytes() - a0)

	o := &outcome{attempted: n}
	var hitMS, coldMS []float64
	for i, r := range reqs {
		o.opMS = append(o.opMS, r.ms)
		o.traced = append(o.traced, tr != nil && i%2 == 0)
		switch {
		case r.err != nil:
			o.fail("request %d: %v", i, r.err)
		case r.status != http.StatusOK:
			o.fail("request %d: status %d", i, r.status)
		case r.hot >= 0 && (r.cache != "hit" || digest(r.resp) != d.hotWant[r.hot]):
			o.fail("request %d: hot-set body differs from its reference (cache %q)", i, r.cache)
		case r.hot < 0 && r.cache != "computed":
			o.fail("request %d: fresh spec served from cache %q", i, r.cache)
		}
		if r.cache == "hit" {
			hitMS = append(hitMS, r.ms)
		} else {
			coldMS = append(coldMS, r.ms)
		}
	}
	// A re-request of each fresh spec must return its first body byte for
	// byte, from the memo.
	for i, r := range reqs {
		if r.hot >= 0 || r.status != http.StatusOK {
			continue
		}
		status, cache, b, err := d.post(r.body)
		if err != nil || status != http.StatusOK || cache != "hit" || !bytes.Equal(b, r.resp) {
			o.fail("request %d: re-request differs from the first response (status %d, cache %q, err %v)", i, status, cache, err)
		}
	}
	o.metrics = []metric{
		{"op_ms_p50", median(o.opMS), "ms", n},
		{"op_ms_p90", percentile(o.opMS, 90), "ms", n},
		{"op_ms_p99", percentile(o.opMS, 99), "ms", n},
		{"alloc_mb_per_op", allocs / float64(n) / (1 << 20), "MB", n},
	}
	o.metrics = append(o.metrics, serveMetrics(hitMS, coldMS, lag)...)
	return o, nil
}

// serveMetrics splits the daemon's request times by how the request was
// served and reports how late the generator ran.
func serveMetrics(hitMS, coldMS, lag []float64) []metric {
	n := len(hitMS) + len(coldMS)
	return []metric{
		{"serve.hit_ms_p50", median(hitMS), "ms", len(hitMS)},
		{"serve.cold_ms_p50", median(coldMS), "ms", len(coldMS)},
		{"serve.hit_frac", float64(len(hitMS)) / float64(n), "frac", n},
		{"serve.gen_lag_ms_p99", percentile(lag, 99), "ms", len(lag)},
	}
}

// rng is a splitmix64 stream, so a workload's inputs follow from its seed.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
