package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestJSONOnlyStdout pins the -json contract for every registered subcommand
// that runs in well under a second at minimum parameters: stdout is a stream
// of JSON documents, each naming the subcommand under "experiment", and the
// tables go to stderr.
func TestJSONOnlyStdout(t *testing.T) {
	// Live-cluster and 30-virtual-second sweeps; the registry test in
	// internal/experiments renders them.
	slow := map[string]bool{"overhead": true, "failover": true, "autopilot": true}
	own := map[string][]string{
		"scenario": {"-spec", "../../scenarios/flashcrowd.json", "-binding", "sim"},
	}
	for _, e := range experiments.Registry() {
		if slow[e.Name] {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			args := []string{"-json", "-sets", "1", "-horizon", "10s", "-points", "5x100", "-nolive", e.Name}
			var stdout, stderr bytes.Buffer
			if code := run(append(args, own[e.Name]...), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			dec := json.NewDecoder(&stdout)
			docs := 0
			for {
				var doc struct {
					Experiment string `json:"experiment"`
				}
				err := dec.Decode(&doc)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("stdout is not a JSON stream: %v", err)
				}
				if doc.Experiment != e.Name {
					t.Errorf(`document %d: "experiment" = %q, want %q`, docs, doc.Experiment, e.Name)
				}
				docs++
			}
			if docs != 1 {
				t.Errorf("%d documents on stdout, want 1", docs)
			}
			if lines := strings.Count(stderr.String(), "\n"); lines < 3 {
				t.Errorf("no table on stderr:\n%s", stderr.String())
			}
		})
	}
}

// TestUnknownSubcommand: a misspelled subcommand exits 2 with a usage line
// that lists every registered name, and so does a missing one.
func TestUnknownSubcommand(t *testing.T) {
	for _, args := range [][]string{{"figure7"}, {}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) wrote to stdout: %s", args, stdout.String())
		}
		line, _, _ := strings.Cut(stderr.String(), "\n")
		for _, e := range experiments.Registry() {
			if !strings.Contains(line, e.Name) {
				t.Errorf("run(%v): usage line %q does not list %s", args, line, e.Name)
			}
		}
		if !strings.Contains(line, "all") {
			t.Errorf("run(%v): usage line %q does not list all", args, line)
		}
	}
}
