package serve

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestPinnedFingerprints: fingerprints computed before the registry
// existed stay valid, so memo stores written then keep serving.
func TestPinnedFingerprints(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		fp   string
	}{
		{Spec{Kind: "run", Version: "STD"}, "2cc298cbf3819785"},
		{Spec{Kind: "table", Table: 4}, "eb0d706e52b37a62"},
		{Spec{Kind: "faults", Seed: 7, Rates: "0, 0.05"}, "1c08873df27aeff5"},
		{Spec{Kind: "lint", Stack: "rpc"}, "5e3d679942f641fd"},
		{Spec{Kind: "profile", Quality: "paper"}, "08ced772323af6f5"},
		{Spec{Kind: "machines", Models: "dec3000,modern"}, "09f0e42473a86043"},
		{Spec{Kind: "optimize", Models: "dec3000", Budget: 60}, "dcf31295797a11dd"},
		// The search's default confirmation count canonicalizes away.
		{Spec{Kind: "optimize", Models: "dec3000", Budget: 60, Candidates: 3}, "dcf31295797a11dd"},
		{Spec{Kind: "throughput"}, "4e069e55ed1789b6"},
		// Neither stack nor quality changes the connection-cloning table.
		{Spec{Kind: "multiconn", Quality: "paper", Stack: "rpc"}, "f16d8f8f3f3b836a"},
		{Spec{Kind: "sensitivity", Sweep: "Cache", Stack: "rpc"}, "0cc72f35e97bdfa0"},
	} {
		if got := tc.spec.Fingerprint("v1"); got != tc.fp {
			t.Errorf("%+v: fingerprint %s, want %s", tc.spec, got, tc.fp)
		}
	}
}

// TestManifestCommand pins the command each kind derives from its
// canonical spec.
func TestManifestCommand(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: "run", Version: "std"}, "protolat -stack tcpip -version STD -samples 3"},
		{Spec{Kind: "run", Samples: 1, Classifier: true, Quality: "paper"}, "protolat -stack tcpip -version ALL -samples 1 -classifier -quality paper"},
		{Spec{Kind: "table", Table: 4, Stack: "rpc"}, "protolat -table 4 -quality quick"},
		{Spec{Kind: "figure", Table: 2, Quality: "paper"}, "protolat -figure 2"},
		{Spec{Kind: "all"}, "protolat -quality quick"},
		{Spec{Kind: "faults", Seed: 11}, "protolat -faults -stack tcpip -seed 11 -quality quick"},
		{Spec{Kind: "faults", Seed: 7, Rates: "0, 0.05"}, "protolat -faults -stack tcpip -seed 7 -rates 0,0.05 -quality quick"},
		{Spec{Kind: "lint", Quality: "paper"}, "protolat -lint -stack tcpip"},
		{Spec{Kind: "profile"}, "protolat -profile -stack tcpip -top 10 -quality quick"},
		{Spec{Kind: "machines", Models: "DEC3000, modern"}, "protolat -machines dec3000,modern -stack tcpip -seed 1 -quality quick"},
		{Spec{Kind: "optimize", Models: "dec3000", Budget: 60}, "protolat -optimize dec3000 -stack tcpip -seed 1 -budget 60 -candidates 3 -quality quick"},
		{Spec{Kind: "optimize", Candidates: 1}, "protolat -optimize all -stack tcpip -seed 1 -budget 300 -candidates 1 -quality quick"},
		{Spec{Kind: "throughput", Stack: "rpc"}, "protolat -throughput"},
		{Spec{Kind: "multiconn", Quality: "paper"}, "protolat -multiconn"},
		{Spec{Kind: "sensitivity"}, "protolat -sensitivity machine -stack tcpip -quality quick"},
		{Spec{Kind: "sensitivity", Sweep: "ASSOC", Stack: "rpc", Quality: "paper"}, "protolat -sensitivity assoc -stack rpc -quality paper"},
	} {
		if got := tc.spec.Normalized().command(); got != tc.want {
			t.Errorf("%+v:\n got %q\nwant %q", tc.spec, got, tc.want)
		}
	}
}

// TestManifestRecordsShape: the manifest's quality block is the shape the
// study ran — here, the per-cell quality the machine and fault reports
// print.
func TestManifestRecordsShape(t *testing.T) {
	for _, s := range []Spec{{Kind: "machines", Models: "dec3000"}, {Kind: "faults", Rates: "0"}} {
		doc, err := Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		q := doc.Manifest.Quality
		want := fmt.Sprintf("Quality: %d warmup + %d measured roundtrips, %d sample(s) per cell.", q.Warmup, q.Measured, q.Samples)
		if !slices.Contains(strings.Split(Text(s.Kind, doc), "\n"), want) {
			t.Errorf("%s report lacks the manifest's %q", s.Kind, want)
		}
	}
}

// TestClassifierIsSemantic: the classifier changes the measurement, so it
// is recorded in the manifest command and the fingerprint.
func TestClassifierIsSemantic(t *testing.T) {
	plain := Spec{Kind: "run", Samples: 1}
	charged := Spec{Kind: "run", Samples: 1, Classifier: true}
	if plain.Fingerprint("v1") == charged.Fingerprint("v1") {
		t.Fatal("classifier does not change the fingerprint")
	}
	var te [2]float64
	for i, s := range []Spec{plain, charged} {
		doc, err := Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		te[i] = doc.Runs[0].TeMeanUS
		if got, want := doc.Manifest.Command, s.Normalized().command(); got != want {
			t.Fatalf("manifest command %q, want %q", got, want)
		}
	}
	if te[0] == te[1] {
		t.Fatalf("classifier left Te at %.1f us", te[0])
	}
}

// TestNormalizedStable: for every kind, the defaults validate and
// normalizing is idempotent.
func TestNormalizedStable(t *testing.T) {
	for _, kind := range Kinds() {
		s := Spec{Kind: strings.ToUpper(kind), Table: 1}.Normalized()
		if err := s.Validate(); err != nil {
			t.Fatalf("%s defaults invalid: %v", kind, err)
		}
		if again := s.Normalized(); again != s {
			t.Fatalf("%s: Normalized not idempotent:\n%+v\n%+v", kind, s, again)
		}
	}
}

// TestDocsListEveryKind: docs/CLI.md's spec-kind table names exactly the
// registered kinds.
func TestDocsListEveryKind(t *testing.T) {
	b, err := os.ReadFile("../../docs/CLI.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n### Study specs\n")
	if !ok {
		t.Fatal(`docs/CLI.md has no "### Study specs" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|").FindAllStringSubmatch(section, -1) {
		documented = append(documented, m[1])
	}
	registered := Kinds()
	for _, k := range registered {
		if !slices.Contains(documented, k) {
			t.Errorf("kind %q is registered but missing from docs/CLI.md", k)
		}
	}
	for _, k := range documented {
		if !slices.Contains(registered, k) {
			t.Errorf("docs/CLI.md lists kind %q, which is not registered", k)
		}
	}
}
