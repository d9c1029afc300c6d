// Command tsvexp regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §5 for the experiment index) and writes
// markdown reports plus CSV data into a results directory.
//
// Usage:
//
//	tsvexp -out results            # everything, full resolution
//	tsvexp -quick -only tab1,fig3  # reduced resolution, selected ids
//	tsvexp -quick -cluster local:2 # cluster benchmark (DESIGN.md §14)
//
// Experiment ids: fig3, fig4, tab1, tab3 (BCB pair sweep shares tab1's
// solves), tab4, tab5 (SiO2 sweep), fig6, tab2 (five-TSV), tab6
// (scalability).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tsvstress/internal/cluster"
	"tsvstress/internal/exp"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/metrics"
	"tsvstress/internal/prof"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsvexp: ")
	var (
		outDir = flag.String("out", "results", "output directory")
		quick  = flag.Bool("quick", false, "reduced resolution (for smoke runs)")
		only   = flag.String("only", "", "comma-separated experiment ids (default: all)")
		seed   = flag.Int64("seed", 2013, "seed for random placements")
		agingF = flag.Bool("aging", false, "run the aging lifetime sweep and write AGING_curves.json (with -compare: golden-check two sweep records)")
		fleet  = flag.String("cluster", "", "run only the cluster benchmark, against local:N in-process workers or a comma-separated worker fleet, and write BENCH_cluster.json")
		cpuPro = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memPro = flag.String("memprofile", "", "write a heap profile at exit to this file")
		cmp    = flag.Bool("compare", false, "with -aging: golden-check two sweep records (golden fresh) instead of running; exits 1 on a >tolerance deviation")
		cmpTol = flag.Float64("compare-tol", 0.10, "with -compare: fractional regression tolerance")
	)
	flag.Parse()

	if *cmp {
		if !*agingF {
			log.Fatal("-compare needs -aging")
		}
		if flag.NArg() != 2 {
			log.Fatalf("-compare needs exactly two files (golden.json fresh.json), got %d args", flag.NArg())
		}
		os.Exit(runAgingCompare(flag.Arg(0), flag.Arg(1), *cmpTol))
	}

	stopProf, err := prof.Start(*cpuPro, *memPro)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	sel := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			sel[strings.TrimSpace(id)] = true
		}
	}
	want := func(ids ...string) bool {
		if len(sel) == 0 {
			return true
		}
		for _, id := range ids {
			if sel[id] {
				return true
			}
		}
		return false
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	if *agingF {
		// Lifetime-vs-pitch and lifetime-vs-parallelism curves through
		// the aging engine (DESIGN.md §17); the emitted record is the
		// golden CI compares against.
		log.Print("aging: EM + extrusion lifetime sweep ...")
		t0 := time.Now()
		s, err := exp.RunAgingSweep(*quick)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(filepath.Join(*outDir, "AGING_curves.json"))
		if err != nil {
			log.Fatal(err)
		}
		if err := exp.WriteAgingJSON(f, s); err != nil {
			log.Fatal(err)
		}
		closeOut(f)
		first, last := s.PitchCurve[0], s.PitchCurve[len(s.PitchCurve)-1]
		log.Printf("aging done in %v: pitch %g→%g µm moves mean lifetime %.3g→%.3g s, mean risk %.3g→%.3g",
			time.Since(t0).Round(time.Millisecond), first.PitchUm, last.PitchUm,
			first.MeanLifetimeSeconds, last.MeanLifetimeSeconds, first.MeanRisk, last.MeanRisk)
		log.Printf("results written to %s", *outDir)
		return
	}
	if *fleet != "" {
		runClusterBench(*outDir, *fleet, *quick, *seed)
		return
	}
	cfg := exp.Config{Quick: *quick}
	pitches := exp.Pitches
	if *quick {
		pitches = exp.QuickPitches
	}

	openOut := func(name string) *os.File {
		f, err := os.Create(filepath.Join(*outDir, name))
		if err != nil {
			log.Fatal(err)
		}
		return f
	}

	if want("fig3") {
		log.Print("fig3: σxx line scan, 2 TSVs, BCB, d=10 ...")
		t0 := time.Now()
		sc, err := exp.RunLineScan(cfg, material.BCB, 10, 25, 101)
		if err != nil {
			log.Fatal(err)
		}
		f := openOut("fig3.md")
		outf(f, "## Figure 3 — σxx along the line through two TSV centers (BCB, d=10µm)\n\n```\n")
		if err := sc.Write(f, "sigma_xx (MPa) vs x (um)"); err != nil {
			log.Fatal(err)
		}
		outf(f, "```\n\nGenerated in %v.\n", time.Since(t0).Round(time.Second))
		closeOut(f)
		log.Printf("fig3 done in %v", time.Since(t0).Round(time.Second))
	}

	if want("tab1", "tab3", "fig4") {
		log.Print("tab1/tab3/fig4: BCB pair sweep ...")
		t0 := time.Now()
		sw, err := exp.RunPairSweep(cfg, material.BCB, pitches)
		if err != nil {
			log.Fatal(err)
		}
		f := openOut("tab1_tab3.md")
		outf(f, "## Tables 1 and 3 — two-TSV pitch sweep, BCB liner\n\n")
		if err := sw.WriteTable(f, metrics.SigmaXX, "Table 1 (measured): σxx"); err != nil {
			log.Fatal(err)
		}
		if err := sw.WriteTable(f, metrics.VonMises, "Table 3 (measured): von Mises"); err != nil {
			log.Fatal(err)
		}
		closeOut(f)

		// Figure 4 uses the d=10 case of the sweep.
		for i, pc := range sw.Cases {
			if pc.D != 10 && !(cfg.Quick && i == 1) {
				continue
			}
			em, err := exp.BuildErrorMaps(cfg, pc, geom.RectAround(geom.Pt(0, 0), 60, 30))
			if err != nil {
				log.Fatal(err)
			}
			f := openOut("fig4.md")
			outf(f, "## Figure 4 — σxx error maps, 2 TSVs (BCB, d=%g)\n\n```\n", pc.D)
			if err := em.Write(f, "two-TSV"); err != nil {
				log.Fatal(err)
			}
			outf(f, "```\n")
			closeOut(f)
			break
		}
		log.Printf("tab1/tab3/fig4 done in %v", time.Since(t0).Round(time.Second))
	}

	if want("tab4", "tab5") {
		log.Print("tab4/tab5: SiO2 pair sweep ...")
		t0 := time.Now()
		sw, err := exp.RunPairSweep(cfg, material.SiO2, pitches)
		if err != nil {
			log.Fatal(err)
		}
		f := openOut("tab4_tab5.md")
		outf(f, "## Tables 4 and 5 — two-TSV pitch sweep, SiO2 liner\n\n")
		if err := sw.WriteTable(f, metrics.SigmaXX, "Table 4 (measured): σxx"); err != nil {
			log.Fatal(err)
		}
		if err := sw.WriteTable(f, metrics.VonMises, "Table 5 (measured): von Mises"); err != nil {
			log.Fatal(err)
		}
		closeOut(f)
		log.Printf("tab4/tab5 done in %v", time.Since(t0).Round(time.Second))
	}

	if want("tab2", "fig6", "fig5") {
		log.Print("tab2/fig6: five-TSV placement ...")
		t0 := time.Now()
		fc, err := exp.RunFiveCase(cfg)
		if err != nil {
			log.Fatal(err)
		}
		f := openOut("tab2_fig6.md")
		outf(f, "## Table 2 and Figure 6 — five-TSV placement (Fig. 5, min pitch 10µm, BCB)\n\n")
		if err := fc.WriteTable(f, "Table 2 (measured)"); err != nil {
			log.Fatal(err)
		}
		em, err := fc.ErrorMaps(cfg)
		if err != nil {
			log.Fatal(err)
		}
		outf(f, "```\n")
		if err := em.Write(f, "five-TSV"); err != nil {
			log.Fatal(err)
		}
		outf(f, "```\n")
		closeOut(f)
		log.Printf("tab2/fig6 done in %v", time.Since(t0).Round(time.Second))
	}

	if want("tab6") {
		log.Print("tab6: scalability ...")
		t0 := time.Now()
		results, err := exp.RunTable6(*quick, *seed)
		if err != nil {
			log.Fatal(err)
		}
		f := openOut("tab6.md")
		if err := exp.WriteTable6(f, results); err != nil {
			log.Fatal(err)
		}
		closeOut(f)
		log.Printf("tab6 done in %v", time.Since(t0).Round(time.Second))
	}

	log.Printf("results written to %s", *outDir)
}

// runClusterBench runs the sharded-cluster benchmark (DESIGN.md §14)
// and writes BENCH_cluster.json. The fleet spec is either "local:N" —
// N in-process workers splitting this machine's cores, so fleet sizes
// compare at equal total core budget — or a comma-separated list of
// running tsvworker addresses.
func runClusterBench(outDir, fleet string, quick bool, seed int64) {
	numPts := 250_000
	if quick {
		numPts = 25_000
	}
	var addrs []string
	if n, ok := strings.CutPrefix(fleet, "local:"); ok {
		count, err := strconv.Atoi(n)
		if err != nil || count < 1 {
			log.Fatalf("-cluster local:N needs N ≥ 1, got %q", fleet)
		}
		lw, err := cluster.StartLocalWorkers(count, cluster.WorkerOptions{})
		if err != nil {
			log.Fatal(err)
		}
		defer lw.Stop()
		addrs = lw.Addrs()
	} else {
		for _, a := range strings.Split(fleet, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			log.Fatalf("-cluster %q names no workers", fleet)
		}
	}
	log.Printf("bench: cluster map, 1000 TSVs, ~%d points, %d worker(s) ...", numPts, len(addrs))
	t0 := time.Now()
	r, err := exp.RunClusterBench(1000, numPts, seed, addrs)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(filepath.Join(outDir, "BENCH_cluster.json"))
	if err != nil {
		log.Fatal(err)
	}
	if err := exp.WriteClusterJSON(f, r); err != nil {
		log.Fatal(err)
	}
	closeOut(f)
	if r.SpeedupValid {
		log.Printf("bench done in %v: single-process %.0f ms, 1 worker %.0f ms, %d workers %.0f ms (×%.2f), max |Δ| %.2g MPa",
			time.Since(t0).Round(time.Millisecond), r.SingleProcessMillis, r.OneWorkerMillis, r.NumWorkers, r.ClusterMillis, r.Speedup, r.MaxAbsDiffMPa)
	} else {
		// The workers shared cores (host has fewer CPUs than the fleet),
		// so a speedup headline would measure scheduler overhead, not
		// scaling; the JSON carries speedup_valid: false for the same
		// reason.
		log.Printf("bench done in %v: single-process %.0f ms, 1 worker %.0f ms, %d workers %.0f ms (speedup not meaningful: %d workers > %d host CPUs), max |Δ| %.2g MPa",
			time.Since(t0).Round(time.Millisecond), r.SingleProcessMillis, r.OneWorkerMillis, r.NumWorkers, r.ClusterMillis, r.NumWorkers, r.HostCPUs, r.MaxAbsDiffMPa)
	}
	log.Printf("results written to %s", outDir)
}

// outf writes formatted report text, treating a write failure (full
// disk, dead pipe) as fatal: a silently truncated results file is
// worse than no file.
func outf(f *os.File, format string, args ...any) {
	if _, err := fmt.Fprintf(f, format, args...); err != nil {
		log.Fatalf("writing %s: %v", f.Name(), err)
	}
}

// closeOut closes a results file and fails the run if the close
// reports an error (the last chance to hear about lost writes).
func closeOut(f *os.File) {
	if err := f.Close(); err != nil {
		log.Fatalf("closing %s: %v", f.Name(), err)
	}
}
