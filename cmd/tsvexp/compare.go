package main

import (
	"log"
	"os"

	"tsvstress/internal/exp"
)

// runAgingCompare implements `tsvexp -aging -compare golden.json
// fresh.json`: every curve metric must sit within tol of the golden
// and the pitch curve must keep its monotone trend. Exit code 1 on any
// deviation, so the CI aging job gates on it directly.
func runAgingCompare(goldenPath, freshPath string, tol float64) int {
	goldenF, err := os.Open(goldenPath)
	if err != nil {
		log.Fatal(err)
	}
	defer goldenF.Close()
	freshF, err := os.Open(freshPath)
	if err != nil {
		log.Fatal(err)
	}
	defer freshF.Close()
	log.Printf("comparing aging curves %s -> %s (tolerance %.1f%%)", goldenPath, freshPath, 100*tol)
	report, err := exp.CompareAgingJSON(goldenF, freshF, tol)
	if _, werr := os.Stdout.WriteString(report); werr != nil {
		log.Fatal(werr)
	}
	if err != nil {
		log.Printf("aging curves deviate from golden: %v", err)
		return 1
	}
	log.Print("aging curves match the golden")
	return 0
}
