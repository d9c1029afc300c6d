package cpuid

import "testing"

// TestTier logs the lane-kernel tier this host runs, so a CI log shows
// which kernels its parity tests exercised, and pins that the AVX-512
// tier implies the AVX2/FMA one its dispatch falls back to.
func TestTier(t *testing.T) {
	t.Logf("cpuid.AVX2FMA=%v cpuid.AVX512=%v", AVX2FMA, AVX512)
	if AVX512 && !AVX2FMA {
		t.Fatal("AVX512 without AVX2FMA: the lane dispatch hands the n mod 8 block to the AVX2 kernel")
	}
}
