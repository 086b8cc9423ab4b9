package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"time"

	"mtcmos/internal/circuits"
	"mtcmos/internal/simerr"
)

// Exit codes reported by the binaries under cmd/. They separate "the
// circuit would not simulate" (retry with different options) from "the
// run hit its budget" (raise -timeout / -max-steps) from "the user
// interrupted" — so scripts driving the tools can react differently.
const (
	ExitOK            = 0 // success
	ExitError         = 1 // generic failure (bad deck, I/O, lint, ...)
	ExitUsage         = 2 // flag-parse failure
	ExitNoConvergence = 3 // solver gave up (non-convergence or numerical poison)
	ExitBudget        = 4 // -timeout / -max-steps / eval budget exhausted
	ExitCancelled     = 5 // interrupted (Ctrl-C / SIGTERM)
)

// errUsage marks a flag-parse failure so ExitCode can map it to
// ExitUsage.
var errUsage = errors.New("usage")

// ExitCode maps an error returned by Sim/Size/Exp to the process exit
// code documented above.
func ExitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return ExitOK
	case errors.Is(err, errUsage):
		return ExitUsage
	case errors.Is(err, simerr.ErrCancelled):
		return ExitCancelled
	case errors.Is(err, simerr.ErrBudget), errors.Is(err, context.DeadlineExceeded):
		return ExitBudget
	case errors.Is(err, context.Canceled):
		return ExitCancelled
	case errors.Is(err, simerr.ErrNoConvergence), errors.Is(err, simerr.ErrNumerical):
		return ExitNoConvergence
	default:
		return ExitError
	}
}

// parseFlags wraps FlagSet.Parse so bad flags classify as usage errors
// (exit 2) while -h keeps its ErrHelp identity (exit 0).
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	return nil
}

// checkWidth refuses, as a usage error naming the flag, an operand
// width below what the circuit generator can build; 0 keeps meaning
// the default width.
func checkWidth(flagName string, v, least int) error {
	if err := circuits.CheckWidth("-"+flagName, v, least); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	return nil
}

// bitsWidth resolves the -bits flag of mtsim and mtsize for one
// benchmark: 0 takes the catalogue's default width def, and a width
// below the generator's minimum least is a usage error.
func bitsWidth(v, least, def int) (int, error) {
	if err := checkWidth("bits", v, least); err != nil {
		return 0, err
	}
	if v == 0 {
		return def, nil
	}
	return v, nil
}

// budgetCtx applies the -timeout flag as a deadline whose cause is a
// budget error: an overrun classifies as ErrBudget (exit 4), keeping
// it distinct from a Ctrl-C cancellation (exit 5).
func budgetCtx(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeoutCause(ctx, d,
		simerr.New(simerr.ErrBudget, "cli", fmt.Sprintf("-timeout %s elapsed", d)))
}
