// Package cpuid reports, once per process, whether the host can run
// the AVX2/FMA lane kernels of the Stage I (superpose) and Stage II
// (interact) tile sweeps.
package cpuid

// AVX2FMA reports whether the CPU has AVX, AVX2 and FMA and the OS
// saves the YMM state (OSXSAVE with XCR0 bits 1 and 2 set). It is
// always false in -tags purego builds and on other architectures.
var AVX2FMA = detectAVX2FMA()
