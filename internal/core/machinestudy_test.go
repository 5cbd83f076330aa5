package core

import (
	"testing"

	"repro/internal/machines"
	"repro/internal/obs"
)

// studyQuick keeps matrix tests fast: one sample, short runs.
var studyQuick = Quality{Warmup: 2, Measured: 6, Samples: 1}

func quickMachineStudy(t *testing.T, names string) (MachineStudyConfig, []MachineCell) {
	t.Helper()
	models, err := machines.Select(names)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MachineStudyConfig{Stack: StackTCPIP, Models: models, Quality: studyQuick}
	cells, err := MachineStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, cells
}

// TestMachineStudyLintCleanOnEveryModel re-validates the static layout lint
// against every matrix geometry: Lint must run without error and produce a
// usable prediction for each (model, version) pair — the issue's
// requirement that predicted vs measured per-set misses stay cross-checked
// on every variant.
func TestMachineStudyLintCleanOnEveryModel(t *testing.T) {
	cfg := MachineStudyConfig{Stack: StackTCPIP, Quality: studyQuick}
	cfg = cfg.withDefaults()
	if len(cfg.Models) < 8 {
		t.Fatalf("default study sweeps %d models, want >= 8", len(cfg.Models))
	}
	// Lint-only pass over the full matrix (no simulation; static analysis
	// is cheap enough to cover everything).
	for _, model := range cfg.Models {
		for _, v := range cfg.Versions {
			cell, err := runMachineLintOnly(cfg, model, v)
			if err != nil {
				t.Errorf("lint %s/%v: %v", model.Name, v, err)
				continue
			}
			if cell < 0 {
				t.Errorf("lint %s/%v predicted %d replacements", model.Name, v, cell)
			}
		}
	}
}

// TestMachineStudyDeterministicAcrossParallelism is the matrix version of
// the repo-wide invariant: identical cells at -parallel 1 and 8.
func TestMachineStudyDeterministicAcrossParallelism(t *testing.T) {
	models := "dec3000,l1-4way,victim8"
	old := Parallelism()
	defer SetParallelism(old)

	SetParallelism(1)
	cfg, serial := quickMachineStudy(t, models)
	SetParallelism(8)
	_, parallel := quickMachineStudy(t, models)

	if len(serial) != len(parallel) {
		t.Fatalf("cell count differs: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("cell %d differs:\nserial   %+v\nparallel %+v", i, serial[i], parallel[i])
		}
	}
	render := func(cells []MachineCell) string {
		return RenderMachineStudy(&obs.Document{Manifest: NewManifest("", cfg.Seed, cfg.Quality), Machines: MachineStudyDocOf(cfg, cells)})
	}
	if got, want := render(serial), render(parallel); got != want {
		t.Error("rendered reports differ between parallelism 1 and 8")
	}
}

// TestMachineStudyAssociativityAbsorbsConflicts checks the study's headline
// crossover direction: 4-way associativity must cut BAD's i-cache
// replacement misses relative to the direct-mapped baseline — the conflict
// misses the paper's layout techniques exist to dodge.
func TestMachineStudyAssociativityAbsorbsConflicts(t *testing.T) {
	_, cells := quickMachineStudy(t, "dec3000,l1-4way")
	repl := map[string]uint64{}
	for _, c := range cells {
		if c.Version == BAD {
			repl[c.Model.Name] = c.ICacheRepl
		}
	}
	if repl["l1-4way"] >= repl["dec3000"] {
		t.Errorf("BAD i-repl on l1-4way (%d) not below direct-mapped (%d) — associativity absorbed nothing",
			repl["l1-4way"], repl["dec3000"])
	}
}

// TestMachineStudyVictimCountersSurface checks the victim model's counter
// plumbing end to end: the BAD layout ping-pongs conflicting blocks, so the
// victim buffer must register hits that reach the study cell.
func TestMachineStudyVictimCountersSurface(t *testing.T) {
	_, cells := quickMachineStudy(t, "victim8")
	var badHits uint64
	for _, c := range cells {
		if c.Version == BAD {
			badHits = c.VictimHits
		}
	}
	if badHits == 0 {
		t.Error("BAD on victim8 recorded zero victim hits — counter not plumbed through")
	}
}

// TestMachineStudyDoc checks the JSON section round-trips the study shape.
func TestMachineStudyDoc(t *testing.T) {
	cfg, cells := quickMachineStudy(t, "dec3000,future266")
	doc := MachineStudyDocOf(cfg, cells)
	if len(doc.Models) != 2 {
		t.Fatalf("doc has %d models, want 2", len(doc.Models))
	}
	if len(doc.Cells) != len(cells) {
		t.Fatalf("doc has %d cells, want %d", len(doc.Cells), len(cells))
	}
	if doc.Models[0].Name != "dec3000" || doc.Models[0].Machine.ClockMHz != 175 {
		t.Errorf("model doc malformed: %+v", doc.Models[0])
	}
	if doc.Cells[0].Model != "dec3000" || doc.Cells[0].Version != "BAD" {
		t.Errorf("first cell = %s/%s, want dec3000/BAD", doc.Cells[0].Model, doc.Cells[0].Version)
	}
}

// runMachineLintOnly is the static half of runMachineCell: build the image
// for the model's geometry and lint it, returning the predicted
// replacements.
func runMachineLintOnly(cfg MachineStudyConfig, model machines.Model, v Version) (int, error) {
	rcfg := cfg.Quality.Apply(DefaultConfig(cfg.Stack, v))
	prog, err := BuildProgram(cfg.Stack, v, rcfg.Feat, rcfg.Strategy, model.Machine)
	if err != nil {
		return -1, err
	}
	rep, err := lintReport(prog, cfg.Stack, v, model)
	if err != nil {
		return -1, err
	}
	return rep.PredictedRepl, nil
}
