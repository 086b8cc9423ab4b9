package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"mtcmos/internal/simerr"
)

func TestExitCodeMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{errors.New("boom"), ExitError},
		{fmt.Errorf("%w: bad flag", errUsage), ExitUsage},
		{simerr.New(simerr.ErrNoConvergence, "spice", "stuck"), ExitNoConvergence},
		{simerr.New(simerr.ErrNumerical, "spice", "NaN"), ExitNoConvergence},
		{simerr.New(simerr.ErrBudget, "spice", "steps"), ExitBudget},
		{simerr.New(simerr.ErrCancelled, "spice", "ctrl-c"), ExitCancelled},
		{context.DeadlineExceeded, ExitBudget},
		{context.Canceled, ExitCancelled},
		{fmt.Errorf("delay-target: %w", simerr.New(simerr.ErrBudget, "core", "events")), ExitBudget},
	}
	for _, tc := range cases {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestUsageErrorExitCode(t *testing.T) {
	var buf bytes.Buffer
	err := Sim([]string{"-no-such-flag"}, &buf)
	if err == nil || ExitCode(err) != ExitUsage {
		t.Fatalf("bad flag must map to ExitUsage, got err=%v code=%d", err, ExitCode(err))
	}
	err = Size([]string{"-no-such-flag"}, &buf)
	if ExitCode(err) != ExitUsage {
		t.Fatalf("mtsize bad flag must map to ExitUsage, got %d", ExitCode(err))
	}
}

// TestOperandWidthIsAUsageError: a width the circuit generators
// cannot build, a vector that does not fit the circuit, a -tech mtsim
// cannot apply and a negative reference-engine vector budget are
// refused before anything runs, as usage errors naming the flag. mtexp,
// whose main prints no error, also prints it on its output.
func TestOperandWidthIsAUsageError(t *testing.T) {
	cases := []struct {
		tool string
		run  func([]string, io.Writer) error
		args []string
		want string
	}{
		{"mtsim", Sim, []string{"-circuit", "chain", "-bits", "-3"}, "-bits -3: the width must be at least 1"},
		{"mtsim", Sim, []string{"-circuit", "adder", "-bits", "-2"}, "-bits -2: the width must be at least 1"},
		{"mtsim", Sim, []string{"-circuit", "mult", "-bits", "1"}, "-bits 1: the width must be at least 2"},
		{"mtsize", Size, []string{"-circuit", "adder", "-bits", "-1"}, "-bits -1: the width must be at least 1"},
		{"mtsize", Size, []string{"-circuit", "mult", "-bits", "1"}, "-bits 1: the width must be at least 2"},
		{"mtsize", Size, []string{"-circuit", "select", "-bits", "-1"}, "-bits -1: the width must be at least 1"},
		{"mtexp", Exp, []string{"-e", "fig7", "-fast", "-mult", "1"}, "-mult 1: the width must be at least 2"},
		{"mtexp", Exp, []string{"-e", "fig13", "-fast", "-adder", "-1"}, "-adder -1: the width must be at least 1"},
		{"mtexp", Exp, []string{"-e", "fig14", "-fast", "-spicevectors", "-1"}, "-spicevectors -1: the vector count must be at least 0"},
		{"mtsim", Sim, []string{"-circuit", "adder", "-old", "9,0", "-new", "7,5"}, `-old 9,0: operand "9" is not a 3-bit base-10 number`},
		{"mtsim", Sim, []string{"-circuit", "mult", "-bits", "4", "-new", "f,10"}, `-new f,10: operand "10" is not a 4-bit base-16 number`},
		{"mtsim", Sim, []string{"-circuit", "tree", "-old", "2", "-new", "1"}, "-old 2: the input level must be 0 or 1"},
		{"mtsim", Sim, []string{"-circuit", "chain", "-new", "banana"}, "-new banana: the input level must be 0 or 1"},
		{"mtsim", Sim, []string{"-circuit", "tree", "-tech", "0.3"}, "-tech applies to -netlist decks"},
		{"mtsim", Sim, []string{"-netlist", "testdata/clean.sp", "-tech", "0.5"}, `unknown -tech "0.5"`},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		err := tc.run(tc.args, &buf)
		if ExitCode(err) != ExitUsage || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v: err = %v (exit %d), want a usage error containing %q", tc.tool, tc.args, err, ExitCode(err), tc.want)
		}
		if tc.tool == "mtexp" && !strings.Contains(buf.String(), tc.want) {
			t.Errorf("%s %v printed %q, want the error", tc.tool, tc.args, buf.String())
		}
	}
}

func TestSimMaxStepsExitsBudget(t *testing.T) {
	var buf bytes.Buffer
	err := Sim([]string{"-circuit", "chain", "-bits", "2", "-wl", "10",
		"-engine", "spice", "-tstop", "6n", "-max-steps", "3"}, &buf)
	if !errors.Is(err, simerr.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if ExitCode(err) != ExitBudget {
		t.Errorf("exit code = %d, want %d", ExitCode(err), ExitBudget)
	}
}

// TestSimNonFiniteTStop: an infinite or NaN horizon is a configuration
// error (exit 1) reported before any step, not a run that never ends.
func TestSimNonFiniteTStop(t *testing.T) {
	for _, tstop := range []string{"inf", "nan"} {
		var buf bytes.Buffer
		err := Sim([]string{"-circuit", "tree", "-engine", "spice", "-tstop", tstop}, &buf)
		if ExitCode(err) != ExitError || err == nil || !strings.Contains(err.Error(), "TStop must be positive and finite") {
			t.Errorf("-tstop %s: err = %v (exit %d), want exit %d naming TStop", tstop, err, ExitCode(err), ExitError)
		}
	}
}

func TestSimTimeoutExitsBudget(t *testing.T) {
	var buf bytes.Buffer
	err := Sim([]string{"-circuit", "chain", "-bits", "2", "-wl", "10",
		"-engine", "spice", "-tstop", "6n", "-timeout", "1ns"}, &buf)
	if !errors.Is(err, simerr.ErrBudget) {
		t.Fatalf("-timeout must classify as a budget failure, got %v", err)
	}
	if errors.Is(err, simerr.ErrCancelled) {
		t.Fatal("-timeout must not classify as cancellation")
	}
	if ExitCode(err) != ExitBudget {
		t.Errorf("exit code = %d, want %d", ExitCode(err), ExitBudget)
	}
}

func TestSimCancelledExitCode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := SimContext(ctx, []string{"-circuit", "chain", "-bits", "2", "-wl", "10",
		"-engine", "spice", "-tstop", "6n"}, &buf)
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if ExitCode(err) != ExitCancelled {
		t.Errorf("exit code = %d, want %d", ExitCode(err), ExitCancelled)
	}
}

// TestSimSweepCancelledExitCode: a -wl sweep under an already-cancelled
// context fails as a cancellation (exit 5), not a generic error.
func TestSimSweepCancelledExitCode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := SimContext(ctx, []string{"-circuit", "tree", "-wl", "0,2,4"}, &buf)
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if ExitCode(err) != ExitCancelled {
		t.Errorf("exit code = %d, want %d", ExitCode(err), ExitCancelled)
	}
}

// TestExpTimeoutExitsBudget: -timeout reaches the fig14 vector grid and
// classifies the overrun as a budget failure (exit 4). The grid is the
// paper's 4,096-pair one: it outlasts the scheduler's preemption slice,
// so the deadline fires mid-grid even when every CPU runs a worker.
func TestExpTimeoutExitsBudget(t *testing.T) {
	var buf bytes.Buffer
	err := Exp([]string{"-e", "fig14", "-fast", "-timeout", "1ms"}, &buf)
	if !errors.Is(err, simerr.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if ExitCode(err) != ExitBudget {
		t.Errorf("exit code = %d, want %d", ExitCode(err), ExitBudget)
	}
}

// TestSizeDegradesInsteadOfAborting is the headline resilience check
// for mtsize: when every delay simulation is killed mid-run by a tiny
// event budget, the tool must not abort — it completes with the
// static-level estimate, a degraded-result banner, and exit code 0.
func TestSizeDegradesInsteadOfAborting(t *testing.T) {
	var buf bytes.Buffer
	err := Size([]string{"-circuit", "tree", "-estimate", "delay",
		"-max-steps", "2", "-power=false"}, &buf)
	if err != nil {
		t.Fatalf("budget-killed search must degrade, not abort: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "degraded") || !strings.Contains(out, "static-level") {
		t.Errorf("output must announce the static-level degrade:\n%s", out)
	}
	if !strings.Contains(out, "warning:") {
		t.Errorf("output must carry the degrade warnings:\n%s", out)
	}
}

func TestSizeCancelledAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := SizeContext(ctx, []string{"-circuit", "tree", "-estimate", "delay"}, &buf)
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("cancellation must abort the search, got %v", err)
	}
	if ExitCode(err) != ExitCancelled {
		t.Errorf("exit code = %d, want %d", ExitCode(err), ExitCancelled)
	}
}

// TestSizeRefinedHonoursContext: the refined bound's proof fan-outs
// run under the command's context, so a cancelled run exits 5 instead
// of finishing the proofs.
func TestSizeRefinedHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := SizeContext(ctx, []string{"-circuit", "mult", "-bits", "4", "-estimate", "refined", "-nolint"}, &buf)
	if ExitCode(err) != ExitCancelled {
		t.Errorf("exit code = %d (%v), want %d", ExitCode(err), err, ExitCancelled)
	}
}
