//go:build race

package optimize

// annealStepBytesLimit is the race detector's pin on the bytes one
// annealing step allocates. Under -race, sync.Pool drops a quarter of
// what is put back at random, so the checks re-allocate their pooled
// scratch on a random share of steps: fifty runs with Go 1.24 on
// linux/amd64 measured 59,213 to 115,380 bytes per step. The limit is
// 1.25x the highest, a third of the 431,637 bytes a step allocated under
// -race while placements and the checks built maps per candidate.
const annealStepBytesLimit = 144_000
