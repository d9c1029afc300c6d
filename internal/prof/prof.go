// Package prof is the repo's one profiling seam: file-based CPU/heap
// profile collection for the CLI tools (tsvexp -only tab6 -cpuprofile ...)
// and the pprof debug endpoints the serving stack mounts next to
// /debug/vars. It wraps runtime/pprof and net/http/pprof so the
// commands share flag semantics and none of them imports the pprof
// machinery directly.
package prof

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	runpprof "runtime/pprof"
)

// Start begins profile collection. cpuPath != "" starts a CPU profile
// immediately; memPath != "" records a heap profile when the returned
// stop function runs. Either path may be empty; with both empty Start
// is a no-op and stop never fails.
//
// The returned stop must be called exactly once, on the normal exit
// path (a log.Fatal skips it — an aborted run has no profile worth
// keeping). It stops the CPU profile, snapshots the heap profile after
// a final GC (so the live set, not transient garbage, is what the
// profile shows), and reports the first file error.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := runpprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: starting CPU profile: %w", err)
		}
	}
	return func() error {
		var firstErr error
		if cpuFile != nil {
			runpprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				firstErr = fmt.Errorf("prof: closing %s: %w", cpuPath, err)
			}
		}
		if memPath != "" {
			if err := writeHeap(memPath); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}, nil
}

// writeHeap snapshots the heap profile into path.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	runtime.GC() // settle the live set before snapshotting
	if err := runpprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("prof: writing heap profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("prof: closing %s: %w", path, err)
	}
	return nil
}

// Handler returns the net/http/pprof handler tree, for mounting at
// /debug/pprof/ on a service mux. The index page lists every runtime
// profile (heap, goroutine, mutex, ...); /profile streams a CPU
// profile, /trace an execution trace — `go tool pprof
// http://host/debug/pprof/profile` against a live tsvserve is the
// production twin of `tsvexp -cpuprofile`.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
