//go:build race

package obs

// raceBuild reports a build under the race detector, whose sync.Pool
// drops pooled values at random: encoding/json's encoder state then
// allocates now and then, so allocation counts say nothing there.
// `make alloc-check` runs the allocation gates without it.
const raceBuild = true
