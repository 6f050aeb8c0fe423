//go:build !go1.23

package sim

// The process substrate switches coroutines with iter.Pull, which this
// toolchain predates; the one error below is the whole diagnosis.
var _ = internal_sim_requires_a_Go_1_23_or_newer_toolchain
