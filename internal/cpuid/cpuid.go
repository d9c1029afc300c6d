// Package cpuid reports, once per process, which lane kernels of the
// Stage I (superpose) and Stage II (interact) tile sweeps the host can
// run: the AVX2/FMA kernels (four points per instruction) and the
// AVX-512 kernels (eight). The CPU alone picks the kernel; no option
// overrides it.
package cpuid

// AVX2FMA reports whether the CPU has AVX, AVX2 and FMA and the OS
// saves the YMM state (OSXSAVE with XCR0 bits 1 and 2 set). It is
// always false in -tags purego builds and on other architectures.
var AVX2FMA = detectAVX2FMA()

// AVX512 reports whether, on top of AVX2FMA, the CPU has AVX512F and
// the OS saves the opmask and ZMM state (XCR0 bits 1, 2, 5, 6 and 7).
// It is always false in -tags purego builds and on other architectures.
var AVX512 = AVX2FMA && detectAVX512()
