package experiments

import (
	"fmt"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/lint"
	"mtcmos/internal/report"
)

// LintAudit statically analyzes the paper's three benchmark circuits
// and the transistor-level decks they expand into, with every rule of
// internal/lint (the mtlint engine). The audit asserts that the
// reproduction inputs are structurally clean: any error-severity
// finding fails the experiment, so a regression in a circuit
// generator or in the expander surfaces here rather than as a wrong
// delay in a figure.
func LintAudit(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	out := &Output{ID: "lint", Title: "static-analysis audit of the benchmark circuits and their expanded decks"}

	type bench struct {
		name string
		c    *circuit.Circuit
		stim circuit.Stimulus
	}
	tree := circuits.PaperTree()
	tree.SleepWL = 8
	ad := circuits.PaperAdder(cfg.AdderBits)
	ad.SleepWL = 10
	mult := circuits.PaperMultiplier(cfg.MultiplierBits)
	mult.SleepWL = 170
	benches := []bench{
		{"tree", tree, circuits.InputEdge(false, true).Stimulus()},
		{fmt.Sprintf("adder%d", cfg.AdderBits), ad.Circuit, ad.CarryRipple().Stimulus()},
		{fmt.Sprintf("mult%dx%d", cfg.MultiplierBits, cfg.MultiplierBits), mult.Circuit, mult.VectorA().Stimulus()},
	}

	tb := report.NewTable("lint audit", "circuit", "gates", "devices", "errors", "warnings", "infos")
	rules := len(lint.Rules())
	for _, b := range benches {
		nl, err := b.c.Netlist(b.stim)
		if err != nil {
			return nil, fmt.Errorf("lint audit: expand %s: %w", b.name, err)
		}
		flat, err := nl.Flatten()
		if err != nil {
			return nil, fmt.Errorf("lint audit: flatten %s: %w", b.name, err)
		}
		diags := lint.Run(nl, b.c, b.c.Tech)
		diags = append(diags, lint.CheckVectors(b.c, b.stim.Old, b.stim.New)...)
		if lint.HasErrors(diags) {
			errs := lint.Filter(diags, lint.Error)
			return nil, fmt.Errorf("lint audit: circuit %s is not clean: %d error(s), first: %s",
				b.name, len(errs), errs[0])
		}
		tb.Addf("%s\t%d\t%d\t%d\t%d\t%d", b.name, len(b.c.Gates), len(flat.MOS),
			lint.Count(diags, lint.Error), lint.Count(diags, lint.Warn), lint.Count(diags, lint.Info))
	}
	out.Tables = append(out.Tables, tb)
	out.note("every deck clean at error severity across %d rules; run cmd/mtlint on external decks", rules)
	return out, nil
}
