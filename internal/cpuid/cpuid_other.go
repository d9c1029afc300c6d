//go:build !amd64 || purego

package cpuid

func detectAVX2FMA() bool { return false }
