package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mtcmos"
	"mtcmos/internal/lint"
	"mtcmos/internal/netlist"
	"mtcmos/internal/sched"
)

// Lint implements the mtlint command: run the static analyzer over one
// or more SPICE-dialect decks and report diagnostics as text, JSON or
// SARIF. It returns a non-nil error when any deck has error-severity
// findings (or warnings under -werror), so the binary exits nonzero.
func Lint(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mtlint", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		techF    = fs.String("tech", "0.7", "technology for process-window checks: 0.7 | 0.3 | none")
		sevF     = fs.String("severity", "info", "minimum severity to report: info | warn | error")
		formatF  = fs.String("format", "", "output format: text | json | sarif (default text)")
		jsonF    = fs.Bool("json", false, "emit machine-readable JSON (alias for -format json)")
		graphF   = fs.Bool("graph", false, "also run the graph-backed rules (MT018+): CCC partition, DC-path and stack checks")
		proveF   = fs.Bool("prove", false, "run the path-condition SAT prover (implies -graph): witness vectors on MT018, vector-dependent shorts as MT023, infeasible MT019 findings suppressed")
		verboseF = fs.Bool("verbose", false, "with -prove, also report prover-suppressed findings with their refutation cores")
		workersF = fs.Int("j", 1, "lint decks on N parallel workers (0 = one per CPU); output is byte-identical to -j 1")
		werrorF  = fs.Bool("werror", false, "treat warnings as errors (nonzero exit), for CI gates")
		rulesF   = fs.Bool("rules", false, "list every rule (code, severity, description) and exit")
		version  = versionFlag(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		printVersion(w, "mtlint")
		return nil
	}
	if *rulesF {
		for _, r := range lint.Rules() {
			fmt.Fprintf(w, "%s %-5s %s\n", r.Code(), r.Severity(), r.Title())
		}
		fmt.Fprintf(w, "%s %-5s %s\n", lint.VectorCode, lint.Error,
			"stimulus vector mismatched to the circuit's primary inputs (mtsim/library only)")
		for _, r := range lint.GraphRules() {
			fmt.Fprintf(w, "%s %-5s %s (-graph)\n", r.Code(), r.Severity(), r.Title())
		}
		return nil
	}
	format := *formatF
	if format == "" {
		format = "text"
		if *jsonF {
			format = "json"
		}
	}
	switch format {
	case "text", "json", "sarif":
	default:
		return fmt.Errorf("unknown format %q (text | json | sarif)", format)
	}
	min, err := lint.ParseSeverity(*sevF)
	if err != nil {
		return err
	}
	tech, err := parseTech(*techF)
	if err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("usage: mtlint [-tech 0.7|0.3|none] [-severity info|warn|error] [-format text|json|sarif] [-graph] [-prove] [-verbose] [-j N] [-werror] deck.sp ...")
	}
	opts := lint.Options{Graph: *graphF || *proveF, Prove: *proveF, Verbose: *verboseF}

	// Decks are independent, sched.Map returns results in item order,
	// and the prover is deterministic per deck, so any worker count
	// produces byte-identical reports.
	reports, err := sched.Map(nil, sched.Workers(*workersF), len(files), func(i int) (lintReport, error) {
		path := files[i]
		diags, err := lintDeckFile(path, tech, opts)
		if err != nil {
			return lintReport{}, err
		}
		shown := lint.Filter(diags, min)
		if shown == nil {
			shown = []lint.Diagnostic{}
		}
		return lintReport{
			File:        path,
			Diagnostics: shown,
			Errors:      lint.Count(diags, lint.Error),
			Warnings:    lint.Count(diags, lint.Warn),
			Infos:       lint.Count(diags, lint.Info),
		}, nil
	})
	if err != nil {
		return err
	}
	totalErrors, totalWarnings := 0, 0
	for _, r := range reports {
		totalErrors += r.Errors
		totalWarnings += r.Warnings
	}

	switch format {
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	case "sarif":
		if err := writeSARIF(w, reports); err != nil {
			return err
		}
	default:
		for _, r := range reports {
			for _, d := range r.Diagnostics {
				fmt.Fprintf(w, "%s: %s\n", r.File, d)
			}
			fmt.Fprintf(w, "%s: %s\n", r.File, r.summary())
		}
	}
	if totalErrors > 0 {
		return fmt.Errorf("%d error-severity finding(s)", totalErrors)
	}
	if *werrorF && totalWarnings > 0 {
		return fmt.Errorf("%d warning(s) with -werror", totalWarnings)
	}
	return nil
}

// lintReport is the per-deck result, shared by the text, JSON and
// SARIF renderers.
type lintReport struct {
	File        string            `json:"file"`
	Diagnostics []lint.Diagnostic `json:"diagnostics"`
	Errors      int               `json:"errors"`
	Warnings    int               `json:"warnings"`
	Infos       int               `json:"infos"`
}

func (r lintReport) summary() string {
	if r.Errors+r.Warnings+r.Infos == 0 {
		return "clean"
	}
	return fmt.Sprintf("%d error(s), %d warning(s), %d info(s)", r.Errors, r.Warnings, r.Infos)
}

// lintDeckFile parses and lints one deck. Syntax errors become MT000
// diagnostics so broken decks report through the same pipeline; only
// I/O failures are returned as errors.
func lintDeckFile(path string, tech *mtcmos.Tech, opts lint.Options) ([]lint.Diagnostic, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	nl, err := netlist.Parse(f)
	if err != nil {
		d := lint.Diagnostic{Code: lint.SyntaxCode, Severity: lint.Error, Message: err.Error()}
		if pe, ok := err.(*netlist.ParseError); ok {
			d.Message = fmt.Sprintf("line %d: %s", pe.Line, pe.Msg)
		}
		return []lint.Diagnostic{d}, nil
	}
	return lint.RunWith(nl, nil, tech, opts), nil
}

// parseTech reads the -tech flag of mtlint and mtsim: 0.7 or 0.3 (um),
// or none (nil) for no technology; any other value is a usage error.
func parseTech(name string) (*mtcmos.Tech, error) {
	switch name {
	case "0.7":
		t := mtcmos.Tech07()
		return &t, nil
	case "0.3":
		t := mtcmos.Tech03()
		return &t, nil
	case "none", "":
		return nil, nil
	}
	return nil, fmt.Errorf("%w: unknown -tech %q (0.7 | 0.3 | none)", errUsage, name)
}

// failOnLintErrors turns error-severity findings into a refusal that
// names each finding; mtsim and mtsize call it before simulating
// unless -nolint is passed.
func failOnLintErrors(diags []lint.Diagnostic, what string) error {
	errs := lint.Filter(diags, lint.Error)
	if len(errs) == 0 {
		return nil
	}
	var b strings.Builder
	for _, d := range errs {
		fmt.Fprintf(&b, "\n  %s", d)
	}
	return fmt.Errorf("lint: %s has %d error-severity finding(s) (pass -nolint to simulate anyway):%s",
		what, len(errs), b.String())
}

// lintCircuit pre-checks a benchmark circuit and its stimulus vectors.
func lintCircuit(c *mtcmos.Circuit, old, new map[string]bool) error {
	diags := lint.Run(nil, c, nil)
	diags = append(diags, lint.CheckVectors(c, old, new)...)
	return failOnLintErrors(diags, "circuit "+c.Name)
}
