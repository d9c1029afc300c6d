//go:build amd64 && !purego

package cpuid

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// detectAVX512 assumes detectAVX2FMA held, so leaf 7 and XGETBV exist.
func detectAVX512() bool {
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
