package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload shrunk to a second of traced load and
// checks that it emits every metric and passes every output check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns service processes")
	}
	work := scratchDir(t)
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 1, seconds: time.Second, trace: true, tiny: true,
				root: "../../..", work: work, traceDir: t.TempDir()}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			res, err := runOne(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.badChecks != 0 || res.failed != 0 {
				t.Fatalf("%d failed of %d attempted, %d bad checks: %v", res.failed, res.attempted, res.badChecks, res.notes)
			}
			for _, set := range []struct {
				specs []metricSpec
				got   map[string]float64
			}{{endToEnd, res.e2e}, {perLayer, res.layer}} {
				for _, s := range set.specs {
					if _, ok := set.got[s.name]; !ok {
						t.Errorf("metric %s not emitted", s.name)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.traceDir, name+".trace.json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}

// scratchDir returns a directory for the runs' WALs, on tmpfs when the
// host has one: deleting fsynced files from a disk-backed file system
// can take longer than the runs themselves.
func scratchDir(t *testing.T) string {
	dir, err := os.MkdirTemp("/dev/shm", "tsvbench-")
	if err != nil {
		return t.TempDir()
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}
