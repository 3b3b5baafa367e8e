// dlhtlint runs the repo's concurrency-contract analyzers (ackgate,
// pipebarrier, sentinelcmp, hotpath — see
// internal/analyzers) over go-list package patterns and exits nonzero
// on any finding.
//
// Usage:
//
//	go run ./cmd/dlhtlint [-only pass[,pass]] [packages]
//
// With no patterns it checks ./... . Suppress a finding by putting a
// //dlht:ok:<pass> comment (with a justification) on the flagged line
// or the line above it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analyzers"
)

func main() {
	only := flag.String("only", "", "comma-separated subset of passes to run")
	list := flag.Bool("list", false, "list the available passes and exit")
	flag.Parse()

	passes := analyzers.All()
	if *list {
		for _, a := range passes {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		passes = passes[:0]
		for _, name := range strings.Split(*only, ",") {
			a := analyzers.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "dlhtlint: unknown pass %q (try -list)\n", name)
				os.Exit(2)
			}
			passes = append(passes, a)
		}
	}

	pkgs, err := analyzers.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlhtlint: %v\n", err)
		os.Exit(2)
	}

	n := 0
	for _, pkg := range pkgs {
		for _, a := range passes {
			for _, d := range analyzers.Run(a, pkg) {
				fmt.Fprintf(os.Stderr, "%s: %s [%s]\n",
					pkg.Fset.Position(d.Pos), d.Message, a.Name)
				n++
			}
		}
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "dlhtlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}
