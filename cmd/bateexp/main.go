// Command bateexp regenerates the paper's tables and figures.
//
// Usage:
//
//	bateexp [-quick] [-seed N] all
//	bateexp [-quick] [-seed N] fig13 table3 ...
//	bateexp -list
//
// Each subcommand prints the rows/series of the corresponding paper
// artifact; see EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bate/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "shrink workloads for a fast pass")
	seed := flag.Int64("seed", 1, "random seed")
	repeats := flag.Int("repeats", 0, "override per-experiment repetition count")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Title)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bateexp [-quick] [-seed N] all|<experiment-id>...")
		fmt.Fprintln(os.Stderr, "known experiments:", experiments.IDs())
		os.Exit(2)
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed, Repeats: *repeats}

	var runners []experiments.Runner
	if len(args) == 1 && args[0] == "all" {
		runners = experiments.All()
	} else {
		for _, id := range args {
			r, err := experiments.ByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}
	for _, r := range runners {
		start := time.Now()
		if err := r.Run(os.Stdout, opts); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Printf("\n[%s completed in %v]\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
}
