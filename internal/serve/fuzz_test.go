package serve

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzSpec feeds arbitrary JSON through the path every request takes
// before any work starts — decode, Normalized, Validate, Fingerprint —
// and checks that:
//
//   - nothing panics, and Validate fails only with a *SpecError;
//   - Normalized is idempotent, so a canonical spec stays canonical;
//   - the fingerprint is the same before and after normalization, so a
//     stored canonical spec memoizes where its request did.
//
// Plain `go test` replays the seed corpus in testdata/fuzz; `make fuzz`
// searches for new inputs.
func FuzzSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		c := s.Normalized()
		if again := c.Normalized(); again != c {
			t.Fatalf("Normalized not idempotent:\n%+v\n%+v", c, again)
		}
		if fp := c.Fingerprint("v1"); fp != s.Fingerprint("v1") {
			t.Fatalf("fingerprint moved under normalization: %s vs %s", fp, s.Fingerprint("v1"))
		}
		if err := c.Validate(); err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("Validate failed with %T %v, want a *SpecError", err, err)
			}
			return
		}
		c.command() // a valid spec always has a manifest command
	})
}
