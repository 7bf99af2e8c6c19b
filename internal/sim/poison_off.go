//go:build !scratchpoison

package sim

// scratchPoisonTag forces the host-scratch poison on in every engine
// when the scratchpoison build tag is set.
const scratchPoisonTag = false
