//go:build !race

package optimize

// annealStepBytesLimit pins the heap bytes one annealing step allocates
// on dec3000 — placement, the well-formedness and equivalence proofs, and
// the cost replay — at 1.25x the 20,044 bytes measured with Go 1.24 on
// linux/amd64. The step allocated 429,550 bytes while placements and the
// checks built maps per candidate, and 2,548,609 while each candidate was
// a fresh clone, so neither can creep back in under it.
const annealStepBytesLimit = 25_100
