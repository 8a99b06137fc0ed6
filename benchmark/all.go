package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment records where a results file was measured; numbers from
// different boxes do not compare.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func currentEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env.Kernel = string(b)
	}
	return env
}

// recordedRun is one child run in a results file.
type recordedRun struct {
	Workload string     `json:"workload"`
	Set      int        `json:"set"`
	Seed     int64      `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Trace    int        `json:"trace"`
	Result   resultLine `json:"result"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Env  environment   `json:"env"`
	Runs []recordedRun `json:"runs"`
}

// runAll runs every workload, untraced then traced, repeat times over. Each
// run is a child process of its own (this command, re-executed), so that CPU
// time and peak memory belong to that run alone.
func runAll(seed int64, seconds float64, repeat int, outPath string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	file := resultsFile{Env: currentEnvironment()}
	fmt.Printf("environment: nproc %d, GOMAXPROCS %d, %s, kernel %s; live clusters run in-process over TCP loopback\n",
		file.Env.NProc, file.Env.GOMAXPROCS, file.Env.Go, file.Env.Kernel)
	status := 0
	for set := 0; set < repeat; set++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				secs := seconds
				if secs <= 0 {
					secs = defaultSeconds(trace == 1)
				}
				run := recordedRun{Workload: w.Name, Set: set, Seed: seed + int64(set), Seconds: secs, Trace: trace}
				line, err := runChild(exe, run)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", w.Name, trace, err)
					status = 1
					continue
				}
				run.Result = line
				file.Runs = append(file.Runs, run)
			}
		}
	}
	fmt.Println()
	file.printSummary()
	if err := file.write(outPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("\nrecorded %d runs in %s\n", len(file.Runs), outPath)
	return status
}

// runChild runs one (workload, run) in a child process, passes its report
// through, and returns the JSON line it ended with.
func runChild(exe string, r recordedRun) (resultLine, error) {
	cmd := exec.Command(exe,
		"-workload", r.Workload, "-seed", fmt.Sprint(r.Seed),
		"-seconds", fmt.Sprint(r.Seconds), "-trace", fmt.Sprint(r.Trace))
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	last := lines[len(lines)-1]
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		if runErr != nil {
			return line, runErr
		}
		return line, fmt.Errorf("no result line: %w", err)
	}
	if runErr != nil {
		return line, fmt.Errorf("incorrect or failed run: %w", runErr)
	}
	return line, nil
}

func (f *resultsFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one end-to-end metric's readings on one workload over the
// file's untraced runs.
func (f *resultsFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if v, ok := r.Result.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// printSummary prints each end-to-end metric's median and quartiles per
// workload. A metric whose run-to-run spread exceeds its bound cannot settle
// a no-regression question and is marked unresolved.
func (f *resultsFile) printSummary() {
	for _, w := range workloads {
		fmt.Printf("%s\n", w.Name)
		for _, m := range endToEnd {
			v := f.values(w.Name, m.Name)
			if len(v) == 0 {
				continue
			}
			q1, med, q3 := quartiles(v)
			note := ""
			if len(v) > 1 && spread(v) > m.Bound {
				note = fmt.Sprintf("  unresolved: spread %.3f exceeds bound %.2f", spread(v), m.Bound)
			}
			fmt.Printf("  %-20s median %14.4f  quartiles %14.4f .. %-14.4f %-6s n=%d%s\n", m.Name, med, q1, q3, m.Unit, len(v), note)
		}
	}
}

// worseBy is how much worse b is than a, as a share of a, in the metric's own
// direction: positive means b regressed.
func worseBy(m metricDecl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict applies the no-regression rule to one metric on one workload:
// parent readings a, change readings b.
func verdict(m metricDecl, a, b []float64) string {
	_, medA, _ := quartiles(a)
	_, medB, _ := quartiles(b)
	worse := worseBy(m, medA, medB)
	if max(spread(a), spread(b)) > m.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if worseBy(m, x, y) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "better (every run)"
		}
		return "unresolved (spread exceeds bound)"
	}
	switch {
	case worse > m.Bound:
		return "REGRESSED"
	case worse < -m.Bound:
		return "better"
	}
	return "unchanged"
}

// compareFiles prints the no-regression table between a parent's results and
// a change's, one row per workload and end-to-end metric.
func compareFiles(pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if a.Env != b.Env {
		fmt.Printf("warning: the files were measured in different environments: %+v against %+v\n", a.Env, b.Env)
	}
	regressed := 0
	for _, w := range workloads {
		fmt.Printf("%s\n", w.Name)
		for _, m := range endToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, medA, _ := quartiles(va)
			_, medB, _ := quartiles(vb)
			v := verdict(m, va, vb)
			if v == "REGRESSED" {
				regressed++
			}
			fmt.Printf("  %-20s %14.4f -> %-14.4f %-6s worse by %+7.3f (bound %.2f, n=%d/%d)  %s\n",
				m.Name, medA, medB, m.Unit, worseBy(m, medA, medB), m.Bound, len(va), len(vb), v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound", regressed)
	}
	return nil
}
