//go:build scratchpoison

package sim

// scratchPoisonTag forces the host-scratch poison on in every engine.
const scratchPoisonTag = true
