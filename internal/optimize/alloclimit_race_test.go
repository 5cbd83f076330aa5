//go:build race

package optimize

// annealStepBytesLimit is the race detector's pin on the bytes one
// annealing step allocates. Under -race, sync.Pool drops a quarter of
// what is put back at random, so the checks re-allocate their pooled
// scratch on a random share of steps: fifty runs with Go 1.24 on
// linux/amd64 measured 35,424 to 88,237 bytes per step once the gate
// read each candidate in one pass. The limit is 1.25x the highest. It was
// 144,000 while the three checks each read the image and placement
// derived its label lists per candidate, and a step allocated 431,637
// bytes under -race while placements and the checks built maps per
// candidate.
const annealStepBytesLimit = 110_300
