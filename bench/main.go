// Command bench is the repository's benchmark: named workloads driven
// through the toolkit's layers, each op timed from outside and its
// output checked, with end-to-end metrics from an untraced pass and
// per-layer metrics from a traced one. See README.md.
//
//	bash bench/run.sh                                  # every workload
//	bash bench/run.sh -w vbs_sweep -seed 3 -trace 1 -trace-file t.json
//	bash bench/run.sh -compare runs/a runs/b
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics, each with its unit.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// setupEnv marks a child process that only times set-up: it holds
// "<workload> <seed>", and the child sets that workload up and exits.
const setupEnv = "MTBENCH_SETUP"

// setupRuns is how many fresh processes setup_s is the median of.
const setupRuns = 15

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if spec := os.Getenv(setupEnv); spec != "" {
		return setupChild(spec, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names string
	var all []string
	for _, w := range workloads {
		all = append(all, w.name)
	}
	fs.StringVar(&names, "workload", strings.Join(all, ","), "comma-separated workloads to run")
	fs.StringVar(&names, "w", strings.Join(all, ","), "shorthand for -workload")
	seed := fs.Int64("seed", 1, "seed all inputs are generated from")
	seconds := fs.Int("seconds", 30, "run length: each workload repeats its round while another fits in this many seconds, at least once")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics instead of end-to-end ones")
	traceFile := fs.String("trace-file", "", "with -trace 1, also write the spans as Chrome trace-event JSON to this file")
	outDir := fs.String("out", "", "also write each workload's full result record into this directory, for -compare")
	compare := fs.Bool("compare", false, "compare two directories of -out records: -compare DIR_A DIR_B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two directories")
			return 2
		}
		if err := compareDirs(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *traced < 0 || *traced > 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	list := strings.Split(names, ",")
	for _, n := range list {
		if _, ok := findWorkload(n); !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s, known_failures)\n", n, strings.Join(all, ", "))
			return 2
		}
	}
	if len(list) > 1 {
		return runEach(list, *seed, *seconds, *traced, *traceFile, *outDir, stdout, stderr)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1}
	w, _ := findWorkload(list[0])
	res, err := runMeasured(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := report(res, *traceFile, *outDir, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runMeasured runs one workload in this process and, for the untraced
// pass, times its set-up in fresh processes.
func runMeasured(w workload, cfg runConfig) (*result, error) {
	res, err := runWorkload(w, cfg)
	if err != nil || cfg.trace {
		return res, err
	}
	s, err := measureSetup(w.name, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.EndToEnd["setup_s"] = s
	return res, nil
}

// measureSetup is the median, over setupRuns fresh processes, of the
// time from starting the process to having the workload's inputs
// ready: process start, package initialization and the workload's own
// set-up, as a user pays them on every run.
func measureSetup(name string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ds []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d", setupEnv, name, seed))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("%s: set-up process: %w", name, err)
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return median(ds), nil
}

func setupChild(spec string, stderr io.Writer) int {
	name, seedS, _ := strings.Cut(spec, " ")
	w, ok := findWorkload(name)
	seed, err := strconv.ParseInt(seedS, 10, 64)
	if !ok || err != nil {
		fmt.Fprintf(stderr, "bench: bad %s=%q\n", setupEnv, spec)
		return 2
	}
	if _, err := w.setup(seed, false); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// resultLine is the last line of the benchmark's output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runEach runs every named workload in its own child process, so that
// set-up time and peak memory are per workload, and ends with one JSON
// line over all of them (metrics named <workload>.<metric>).
func runEach(list []string, seed int64, seconds, traced int, traceFile, outDir string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sum := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, name := range list {
		var out bytes.Buffer
		args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced)}
		if traceFile != "" {
			ext := filepath.Ext(traceFile)
			args = append(args, "-trace-file", strings.TrimSuffix(traceFile, ext)+"."+name+ext)
		}
		if outDir != "" {
			args = append(args, "-out", outDir)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &out), stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			sum.Correct, code = false, 1
			continue
		}
		var last resultLine
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			fmt.Fprintf(stderr, "bench: %s: result line: %v\n", name, err)
			sum.Correct, code = false, 1
			continue
		}
		sum.Correct = sum.Correct && last.Correct
		sum.Attempted += last.Attempted
		sum.Failed += last.Failed
		for k, m := range last.Metrics {
			sum.Metrics[name+"."+k] = m
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// report prints every metric by name with its unit, names every failed
// op, writes the optional trace and record files, and ends with the
// result line.
func report(res *result, traceFile, outDir string, stdout io.Writer) error {
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "%s seed=%d trace=%v: %d rounds, %d ops, %d failed\n",
		res.Workload, res.Seed, res.Trace, res.Rounds, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	defs, values := endToEnd, res.EndToEnd
	if res.Trace {
		defs, values = perLayer(), res.Layer
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		metrics[d.name] = metricValue{values[d.name], d.unit}
		fmt.Fprintf(w, "  %-28s %-14.6g %s\n", d.name, values[d.name], d.unit)
	}
	if !res.Trace {
		// The layer counts an untraced run also measures.
		for _, d := range perLayer() {
			if v, ok := res.Layer[d.name]; ok {
				fmt.Fprintf(w, "  %-28s %-14.6g %s (layer)\n", d.name, v, d.unit)
			}
		}
	}
	if traceFile != "" && res.tracer != nil {
		if err := res.tracer.writeChrome(traceFile); err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		fmt.Fprintf(w, "  trace written to %s\n", traceFile)
	}
	if outDir != "" {
		if err := writeRecord(res, outDir); err != nil {
			return err
		}
	}
	line, err := json.Marshal(resultLine{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

func writeRecord(res *result, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", res.Workload, res.Seed, res.Trace, time.Now().UnixNano())
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		return fmt.Errorf("result record: %w", err)
	}
	return nil
}
