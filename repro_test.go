package repro

import (
	"context"
	"strings"
	"testing"
)

func TestPublicRunAPI(t *testing.T) {
	cfg := DefaultConfig(StackTCPIP, ALL)
	cfg.Warmup, cfg.Measured, cfg.Samples = 4, 8, 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TeMeanUS < 210 {
		t.Fatalf("Te %.1f below the physical floor", res.TeMeanUS)
	}
	if res.First().MCPI <= 0 {
		t.Fatal("no memory CPI measured")
	}
}

func TestVersionsOrder(t *testing.T) {
	vs := Versions()
	if len(vs) != 6 || vs[0] != BAD || vs[5] != ALL {
		t.Fatalf("Versions() = %v", vs)
	}
}

// runText computes one registry kind at quick quality and returns its
// text report, failing the test on error or a missing document.
func runText(t *testing.T, spec Spec) string {
	t.Helper()
	doc, err := RunSpec(context.Background(), spec)
	if err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
	if doc == nil {
		t.Fatalf("%+v: no document", spec)
	}
	return Text(spec.Kind, doc)
}

func TestTableRenderersProduceOutput(t *testing.T) {
	for n := 1; n <= 3; n++ {
		if s := runText(t, Spec{Kind: "table", Table: n}); !strings.Contains(s, "Table") {
			t.Fatalf("Table %d output malformed:\n%s", n, s)
		}
	}
}

func TestFigures(t *testing.T) {
	f1 := runText(t, Spec{Kind: "figure", Table: 1})
	for _, proto := range []string{"TCPTEST", "XRPCTEST", "BLAST", "LANCE"} {
		if !strings.Contains(f1, proto) {
			t.Fatalf("Figure 1 missing %s", proto)
		}
	}
	f2 := runText(t, Spec{Kind: "figure", Table: 2})
	if !strings.Contains(f2, "#") || !strings.Contains(f2, "Outlined") {
		t.Fatal("Figure 2 footprint malformed")
	}
}

func TestVersionTables(t *testing.T) {
	for _, n := range []int{4, 6, 7, 8, 9} {
		if s := runText(t, Spec{Kind: "table", Table: n}); !strings.Contains(s, "Table") || len(s) < 100 {
			t.Fatalf("Table %d malformed:\n%s", n, s)
		}
	}
}
