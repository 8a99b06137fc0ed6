// rtmw-vet runs the repo's custom invariant analyzers (internal/analysis)
// over Go packages, go-vet style:
//
//	go run ./cmd/rtmw-vet ./...
//	go run ./cmd/rtmw-vet -only noalloc,atomicfield ./internal/sched
//	go run ./cmd/rtmw-vet -list
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. The binary is
// built from the repo itself — there is no external toolchain dependency to
// pin; CI runs it in the lint job.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rtmw-vet [-list] [-only a,b] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.Suite
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := analysis.Lookup(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "rtmw-vet: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtmw-vet: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtmw-vet: %v\n", err)
		os.Exit(2)
	}

	findings := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunPackage(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtmw-vet: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Println(d)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "rtmw-vet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}
