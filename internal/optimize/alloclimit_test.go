//go:build !race

package optimize

// annealStepBytesLimit pins the heap bytes one annealing step allocates
// on dec3000 — placement, the gate (well-formedness, the move-only proof
// and the cost replay) and the scored candidate — at 1.25x the 8,220
// bytes measured with Go 1.24 on linux/amd64. The step allocated 20,044
// bytes while placement derived its label lists per candidate, 429,550
// while placements and the checks built maps per candidate, and
// 2,548,609 while each candidate was a fresh clone, so none can creep
// back in under it.
const annealStepBytesLimit = 10_300
