package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/obs"
)

// daemon starts an in-process daemon on a temp store, salted with the
// same checkout identity the CLI stamps, and returns its submit URL.
func daemon(t *testing.T) string {
	t.Helper()
	srv, err := repro.NewServer(repro.ServeConfig{StoreDir: t.TempDir(), GitDescribe: gitDescribe()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts.URL + "/v1/experiments"
}

// submit posts a spec and returns the status and body.
func submit(t *testing.T, url string, spec any) (int, []byte) {
	t.Helper()
	b, ok := spec.([]byte)
	if !ok {
		var err error
		if b, err = json.Marshal(spec); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// kindCase is a CLI invocation and the spec a daemon client would send
// for the same document.
type kindCase struct {
	args []string
	spec repro.Spec
}

// kindCases holds, for every registry kind, a small quick-quality CLI
// invocation and the spec a daemon client would send for it.
var kindCases = map[string]kindCase{
	"run": {[]string{"-stack", "rpc", "-version", "pin", "-samples", "1", "-classifier", "-policy", "adaptive"},
		repro.Spec{Kind: "run", Stack: "rpc", Version: "PIN", Samples: 1, Classifier: true, Policy: "adaptive"}},
	"table":  {[]string{"-table", "7"}, repro.Spec{Kind: "table", Table: 7}},
	"figure": {[]string{"-figure", "1"}, repro.Spec{Kind: "figure", Table: 1}},
	"all":    {nil, repro.Spec{Kind: "all"}},
	"faults": {[]string{"-faults", "-seed", "3", "-rates", "0, 0.05"},
		repro.Spec{Kind: "faults", Seed: 3, Rates: "0,0.05"}},
	"soak":    {[]string{"-soak", "-seed", "2"}, repro.Spec{Kind: "soak", Seed: 2}},
	"lint":    {[]string{"-lint", "-stack", "rpc"}, repro.Spec{Kind: "lint", Stack: "rpc"}},
	"profile": {[]string{"-profile", "-top", "3"}, repro.Spec{Kind: "profile", Top: 3}},
	"machines": {[]string{"-machines", "dec3000", "-rates", "0.05"},
		repro.Spec{Kind: "machines", Models: "DEC3000", Rates: "0.05"}},
	"optimize": {[]string{"-optimize", "dec3000", "-budget", "20", "-candidates", "1"},
		repro.Spec{Kind: "optimize", Models: "dec3000", Budget: 20, Candidates: 1}},
	"throughput":  {[]string{"-throughput"}, repro.Spec{Kind: "throughput"}},
	"multiconn":   {[]string{"-multiconn", "-quality", "paper"}, repro.Spec{Kind: "multiconn"}},
	"sensitivity": {[]string{"-sensitivity", "assoc", "-stack", "rpc"}, repro.Spec{Kind: "sensitivity", Sweep: "assoc", Stack: "rpc"}},
}

// shapeCases are further CLI/daemon pairs for parameters the kind cases
// leave at their defaults, named by the subtest they run as.
var shapeCases = map[string]kindCase{
	"soak-batch-shape": {[]string{"-soak", "-seed", "5", "-soakbatches", "1", "-soakroundtrips", "4"},
		repro.Spec{Kind: "soak", Seed: 5, SoakBatches: 1, SoakRoundtrips: 4}},
	"faults-default-rates":   {[]string{"-faults", "-seed", "11"}, repro.Spec{Kind: "faults", Seed: 11}},
	"machines-default-rates": {[]string{"-machines", "dec3000"}, repro.Spec{Kind: "machines", Models: "dec3000"}},
}

// TestCLIMatchesDaemon: for every registered kind, the CLI's -json bytes
// equal the daemon's document for the same spec, and the CLI's report is
// the kind's rendering of that document after a JSON round trip — the
// text is a function of the serialized document. The manifest's command
// parses back, through the CLI's own flags, into a spec with the same
// fingerprint. It walks the registry, so a kind without a case here fails
// instead of going unchecked.
func TestCLIMatchesDaemon(t *testing.T) {
	url := daemon(t)
	check := func(t *testing.T, c kindCase) {
		path := filepath.Join(t.TempDir(), "doc.json")
		var stdout, stderr bytes.Buffer
		if code := protolat(append(c.args, "-json", path), &stdout, &stderr); code != 0 {
			t.Fatalf("protolat %v: exit %d: %s", c.args, code, stderr.String())
		}
		cli, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		status, body := submit(t, url, c.spec)
		if status != http.StatusOK {
			t.Fatalf("daemon: %d: %s", status, body)
		}
		if !bytes.Equal(cli, body) {
			t.Fatalf("CLI -json and daemon documents differ\ncli:    %.300s\ndaemon: %.300s", cli, body)
		}
		var doc obs.Document
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if got := repro.Text(c.spec.Kind, &doc) + "\n"; stdout.String() != got {
			t.Fatalf("CLI report is not the rendering of the daemon's document\ncli:\n%s\nrendered:\n%s", stdout.String(), got)
		}
		o, err := parseFlags(strings.Fields(doc.Manifest.Command)[1:], io.Discard)
		if err != nil {
			t.Fatalf("manifest command %q: %v", doc.Manifest.Command, err)
		}
		spec := o.studySpec().Normalized()
		if err := spec.Validate(); err != nil {
			t.Fatalf("manifest command %q: %v", doc.Manifest.Command, err)
		}
		if got, want := spec.Fingerprint(""), c.spec.Fingerprint(""); got != want {
			t.Fatalf("manifest command %q fingerprints %s, spec %s", doc.Manifest.Command, got, want)
		}
	}
	for _, kind := range repro.Kinds() {
		c, ok := kindCases[kind]
		if !ok {
			t.Errorf("kind %q has no CLI case", kind)
			continue
		}
		t.Run(kind, func(t *testing.T) { check(t, c) })
	}
	for name, c := range shapeCases {
		t.Run(name, func(t *testing.T) { check(t, c) })
	}
}

// TestBadInputBothShells: an invalid value is a *SpecError in both
// shells — exit 2 from the CLI, a 400 from the daemon, one message.
func TestBadInputBothShells(t *testing.T) {
	url := daemon(t)
	cases := []struct {
		name string
		args []string
		spec string
	}{
		{"stack", []string{"-stack", "tcp", "-quality", "fast"}, `{"kind":"run","stack":"tcp","quality":"fast"}`},
		{"quality", []string{"-quality", "fast"}, `{"kind":"all","quality":"fast"}`},
		{"version", []string{"-stack", "rpc", "-version", "NOPE"}, `{"kind":"run","stack":"rpc","version":"NOPE"}`},
		{"faults stack", []string{"-faults", "-stack", "osi"}, `{"kind":"faults","stack":"osi"}`},
		{"policy", []string{"-stack", "rpc", "-policy", "psychic"}, `{"kind":"run","stack":"rpc","policy":"psychic"}`},
		{"table", []string{"-table", "12"}, `{"kind":"table","table":12}`},
		{"figure", []string{"-figure", "3"}, `{"kind":"figure","table":3}`},
		{"rates", []string{"-faults", "-rates", "0.5,2"}, `{"kind":"faults","rates":"0.5,2"}`},
		{"models", []string{"-machines", "pdp11"}, `{"kind":"machines","models":"pdp11"}`},
		{"sensitivity stack", []string{"-sensitivity", "cache", "-stack", "tcp"}, `{"kind":"sensitivity","sweep":"cache","stack":"tcp"}`},
		{"sensitivity quality", []string{"-sensitivity", "machine", "-quality", "fast"}, `{"kind":"sensitivity","quality":"fast"}`},
		{"sensitivity sweep", []string{"-sensitivity", "bogus"}, `{"kind":"sensitivity","sweep":"bogus"}`},
		// A kind that does not read stack or quality still rejects an
		// invalid one.
		{"throughput stack", []string{"-throughput", "-stack", "osi"}, `{"kind":"throughput","stack":"osi"}`},
		{"multiconn quality", []string{"-multiconn", "-quality", "fast"}, `{"kind":"multiconn","quality":"fast"}`},
		{"figure quality", []string{"-figure", "1", "-quality", "fast"}, `{"kind":"figure","quality":"fast"}`},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		code := protolat(tc.args, &stdout, &stderr)
		status, body := submit(t, url, []byte(tc.spec))
		var eb struct{ Error, Reason string }
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("%s: daemon body %s: %v", tc.name, body, err)
		}
		if code != 2 || status != http.StatusBadRequest || eb.Reason != "spec" {
			t.Fatalf("%s: CLI exit %d, daemon %d %q; want 2 and 400 spec", tc.name, code, status, eb.Reason)
		}
		if want := "protolat: " + eb.Error + "\n"; stderr.String() != want || !strings.HasPrefix(eb.Error, "spec field") {
			t.Fatalf("%s: CLI said %q, daemon %q", tc.name, stderr.String(), eb.Error)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%s: CLI printed a report for an invalid spec", tc.name)
		}
	}
}

// docSkips are the quoted commands that run no study: the daemon, its
// client and the machine list.
var docSkips = []string{"-serve", "-submit", "-machines list"}

// TestDocCommandsAreSpecs: every protolat command quoted in README.md and
// EXPERIMENTS.md parses with the CLI's own flags into a spec that
// normalizes and validates, so a documented command cannot drift from
// the registry.
func TestDocCommandsAreSpecs(t *testing.T) {
	// An inline quote may wrap across lines; a go run line ends at its
	// comment.
	quoted := regexp.MustCompile("`protolat([^`]*)`|go run \\./cmd/protolat([^`#\\n]*)")
	n := 0
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range quoted.FindAllStringSubmatch(string(b), -1) {
			cmd := strings.Join(strings.Fields(m[1]+" "+m[2]), " ")
			if slices.ContainsFunc(docSkips, func(s string) bool { return strings.Contains(cmd+" ", s+" ") }) {
				continue
			}
			n++
			o, err := parseFlags(strings.Fields(cmd), io.Discard)
			if err == nil {
				err = o.studySpec().Normalized().Validate()
			}
			if err != nil {
				t.Errorf("%s: protolat %s: %v", doc, cmd, err)
			}
		}
	}
	if n < 20 {
		t.Fatalf("found only %d protolat commands in the docs; the pattern no longer matches them", n)
	}
}
