//go:build !amd64

package fxp

// dotUncheckedBatchSIMD reports that this architecture has no SIMD
// kernel: DotUncheckedBatch runs DotUncheckedBatchGo.
func dotUncheckedBatchSIMD(w, xs []Value, stride int, accs []int64) bool { return false }
