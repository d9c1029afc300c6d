//go:build !amd64 || purego

package cpuid

func detectAVX2FMA() bool { return false }

func detectAVX512() bool { return false }
