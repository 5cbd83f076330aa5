package soak

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// testConfig is a small but full-coverage soak: every default regime, both
// policies, one version, two batches per cell — 16 units, chunked so a
// stop point lands mid-schedule.
func testConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig(core.StackTCPIP, 5)
	cfg.Versions = []core.Version{core.ALL}
	cfg.BatchesPerCell = 2
	cfg.CheckpointEvery = 3
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "soak.journal")
	return cfg
}

// docBytes marshals the result's JSON document.
func docBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.MarshalIndent(Doc(res), "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestSoakKillAndResume is the PR's resumability criterion: a soak stopped
// at a chunk boundary and resumed from its journal produces a JSON document
// byte-identical to an uninterrupted run's.
func TestSoakKillAndResume(t *testing.T) {
	full := testConfig(t)
	uninterrupted, err := Run(full)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if uninterrupted.Units != full.normalize().totalUnits() {
		t.Fatalf("uninterrupted run finished %d units, want %d", uninterrupted.Units, full.normalize().totalUnits())
	}

	stopped := testConfig(t)
	stopped.StopAfterUnits = 5
	res, err := Run(stopped)
	if err != nil {
		t.Fatalf("stopped run: %v", err)
	}
	if !res.Stopped {
		t.Fatal("run with StopAfterUnits did not report Stopped")
	}
	if res.Units >= uninterrupted.Units || res.Units < stopped.StopAfterUnits {
		t.Fatalf("stopped at %d units, want in [%d, %d)", res.Units, stopped.StopAfterUnits, uninterrupted.Units)
	}

	stopped.StopAfterUnits = 0
	resumed, err := Resume(stopped)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !resumed.Resumed {
		t.Fatal("resumed run did not report Resumed")
	}
	want, got := docBytes(t, uninterrupted), docBytes(t, resumed)
	if string(want) != string(got) {
		t.Fatalf("resumed document differs from uninterrupted:\n--- uninterrupted\n%s\n--- resumed\n%s", want, got)
	}

	// Resuming the now-complete journal is a no-op with the same output.
	again, err := Resume(stopped)
	if err != nil {
		t.Fatalf("resume of complete journal: %v", err)
	}
	if string(docBytes(t, again)) != string(want) {
		t.Fatal("resume of a complete journal changed the document")
	}
}

// TestSoakParallelIdentical: the document is byte-identical at any worker
// pool width, including with a stop/resume cycle in the middle.
func TestSoakParallelIdentical(t *testing.T) {
	defer core.SetParallelism(0)

	core.SetParallelism(1)
	serialCfg := testConfig(t)
	serial, err := Run(serialCfg)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}

	core.SetParallelism(8)
	wideCfg := testConfig(t)
	wideCfg.StopAfterUnits = 7
	if _, err := Run(wideCfg); err != nil {
		t.Fatalf("wide stopped run: %v", err)
	}
	wideCfg.StopAfterUnits = 0
	wide, err := Resume(wideCfg)
	if err != nil {
		t.Fatalf("wide resume: %v", err)
	}
	if string(docBytes(t, serial)) != string(docBytes(t, wide)) {
		t.Fatal("documents differ between -parallel 1 and -parallel 8 (with resume)")
	}
}

// TestSoakJournalErrors: every way a journal can be bad yields a typed
// JournalError with the right reason — never a panic, never a silent
// restart.
func TestSoakJournalErrors(t *testing.T) {
	cfg := testConfig(t)
	cfg.StopAfterUnits = 3
	if _, err := Run(cfg); err != nil {
		t.Fatalf("seed run: %v", err)
	}
	good, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	cfg.StopAfterUnits = 0

	check := func(name, reason string, mutate func() error) {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatalf("%s: setup: %v", name, err)
		}
		_, err := Resume(cfg)
		var je *JournalError
		if !errors.As(err, &je) {
			t.Fatalf("%s: got %v, want a *JournalError", name, err)
		}
		if je.Reason != reason {
			t.Errorf("%s: reason %q, want %q", name, je.Reason, reason)
		}
	}

	check("missing", "missing", func() error { return os.Remove(cfg.CheckpointPath) })
	check("truncated", "corrupt", func() error {
		return os.WriteFile(cfg.CheckpointPath, good[:len(good)/2], 0o644)
	})
	check("bit flip in state", "corrupt", func() error {
		bad := append([]byte(nil), good...)
		// Flip a digit inside the state payload, which follows the header
		// line (the CRC must catch it).
		idx := bytes.IndexByte(bad, '\n')
		if idx < 0 {
			return errors.New("no header line in journal")
		}
		for i := idx + 1; i < len(bad); i++ {
			if bad[i] >= '1' && bad[i] <= '8' {
				bad[i]++
				break
			}
		}
		return os.WriteFile(cfg.CheckpointPath, bad, 0o644)
	})
	check("payload shorter than its header says", "corrupt", func() error {
		return os.WriteFile(cfg.CheckpointPath, good[:len(good)-1], 0o644)
	})
	check("schema-1 layout", "schema", func() error {
		if err := os.WriteFile(cfg.CheckpointPath, good, 0o644); err != nil {
			return err
		}
		state, err := LoadEnvelope(cfg.CheckpointPath, journalMagic, journalSchema, cfg.Seed, cfg.fingerprint())
		if err != nil {
			return err
		}
		return os.WriteFile(cfg.CheckpointPath, legacyEnvelope(journalMagic, cfg.Seed, cfg.fingerprint(), state), 0o644)
	})
	check("not a journal", "corrupt", func() error {
		return os.WriteFile(cfg.CheckpointPath, []byte(`{"magic":"something-else"}`), 0o644)
	})

	// A journal from a different configuration must be rejected.
	if err := os.WriteFile(cfg.CheckpointPath, good, 0o644); err != nil {
		t.Fatalf("restore journal: %v", err)
	}
	other := cfg
	other.Seed = 99
	_, err = Resume(other)
	var je *JournalError
	if !errors.As(err, &je) || je.Reason != "mismatch" {
		t.Fatalf("config mismatch: got %v, want JournalError reason mismatch", err)
	}
}

// TestSoakWatchdogLive proves the event-budget watchdog is active inside
// soak units: an absurdly small budget must surface core.BudgetError.
func TestSoakWatchdogLive(t *testing.T) {
	cfg := testConfig(t)
	cfg.CheckpointPath = ""
	cfg.EventBudget = 10
	_, err := Run(cfg)
	var be *core.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want a *core.BudgetError", err)
	}
}

// TestSoakChecksCounted proves no unit skipped its invariant checks: the
// counters must equal the schedule arithmetic exactly. A regression that
// stopped calling VerifyUnitStats (or dropped units) fails here.
func TestSoakChecksCounted(t *testing.T) {
	cfg := testConfig(t)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	n := cfg.normalize()
	total := n.totalUnits()
	faultedRegimes := 0
	for _, r := range n.Regimes {
		if r.Plan != nil {
			faultedRegimes++
		}
	}
	wantRecon := faultedRegimes * len(n.Policies) * len(n.Versions) * n.BatchesPerCell
	if res.Checks.Units != total || res.Checks.FrameAccounting != total {
		t.Errorf("checks %+v: units/frame-accounting want %d", res.Checks, total)
	}
	if res.Checks.Reconciliation != wantRecon {
		t.Errorf("reconciliation checks %d, want %d", res.Checks.Reconciliation, wantRecon)
	}
	// Every measured roundtrip must be in a digest: units × batch size.
	var rt uint64
	for _, c := range res.Cells {
		rt += c.All.Count
	}
	if want := uint64(total * n.BatchRoundtrips); rt != want {
		t.Errorf("digests hold %d roundtrips, want %d", rt, want)
	}
}

// TestVerifyUnitStatsTamper: the re-verification actually rejects numbers
// that violate the invariants it claims to check.
func TestVerifyUnitStatsTamper(t *testing.T) {
	cfg := testConfig(t)
	cfg.CheckpointPath = ""
	// Take real stats from one faulted unit (unit index inside the "loss"
	// regime: cell 2 with the default layout regime-major grid).
	lossUnit := 1 * len(cfg.Policies) * len(cfg.Versions) * cfg.BatchesPerCell
	out, err := runUnit(cfg.normalize(), lossUnit)
	if err != nil {
		t.Fatalf("runUnit: %v", err)
	}
	if err := VerifyUnitStats(lossUnit, out.stats, true); err != nil {
		t.Fatalf("genuine stats rejected: %v", err)
	}

	tampered := out.stats
	tampered.LinkDelivered++
	if err := VerifyUnitStats(lossUnit, tampered, true); err == nil {
		t.Error("frame-accounting tamper not detected")
	}

	tampered = out.stats
	tampered.Injected.Dropped++
	tampered.LinkDropped++
	tampered.LinkFrames++ // keep conservation, break reconciliation
	if err := VerifyUnitStats(lossUnit, tampered, true); err == nil {
		t.Error("reconciliation tamper not detected")
	}

	tampered = out.stats
	tampered.LinkFrames++
	if err := VerifyUnitStats(lossUnit, tampered, false); err == nil {
		t.Error("conservation-law tamper not detected without injector")
	}
}
