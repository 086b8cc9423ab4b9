// Package simerr defines the failure taxonomy shared by the toolkit's
// simulation engines (internal/spice, internal/core) and everything
// that drives them (sizing searches, experiments, the CLI).
//
// Every runtime simulation failure is classified into one of five
// kinds, each a sentinel error usable with errors.Is:
//
//   - ErrNoConvergence: the solver exhausted its convergence-recovery
//     ladder (timestep back-off, damping, Gmin stepping, source
//     ramping) without finding a solution;
//   - ErrNumerical: a NaN or Inf appeared in the solution vector — the
//     run is numerically poisoned and stops immediately;
//   - ErrBudget: a caller-imposed budget ran out: a step or event
//     cap, or the run's context deadline (the wall-clock budget);
//   - ErrCancelled: the run's context was cancelled (Ctrl-C);
//   - ErrInternal: the machinery around a run failed rather than the
//     simulation itself — e.g. a sweep item panicked.
//
// Failures are reported as *Error values wrapping the sentinel and
// carrying diagnostics: the offending node or device, the simulated
// time and timestep, and iteration counts. Engines return the partial
// result computed up to the failure alongside the error, so callers
// can salvage waveforms (and the CLI can map kinds onto distinct exit
// codes).
//
// The context is the only wall-clock budget, and FromContext is the one
// rule that classifies a fired context, for every engine and sweep.
package simerr

import (
	"context"
	"errors"
	"fmt"
)

// The five failure kinds. Match with errors.Is against a returned
// error; the concrete value is always a *Error wrapping one of these.
var (
	ErrNoConvergence = errors.New("no convergence")
	ErrNumerical     = errors.New("numerical fault")
	ErrBudget        = errors.New("budget exhausted")
	ErrCancelled     = errors.New("cancelled")
	ErrInternal      = errors.New("internal fault")
)

// Error is a classified simulation failure with diagnostics.
type Error struct {
	Kind error  // one of the package sentinels
	Op   string // engine that failed: "spice" or "core"

	Node string  // offending node or device name, when known
	T    float64 // simulated time of the failure (seconds)
	Dt   float64 // timestep being attempted (spice; 0 if n/a)

	Sweeps int // Newton iterations (spice) spent over the whole run
	Steps  int // accepted timesteps (spice) or events (core) so far

	Msg string // free-form context
}

func (e *Error) Error() string {
	s := e.Op + ": " + e.Kind.Error()
	if e.Msg != "" {
		s += ": " + e.Msg
	}
	if e.Node != "" {
		s += fmt.Sprintf(" (node %q)", e.Node)
	}
	if e.T > 0 || e.Dt > 0 {
		s += fmt.Sprintf(" at t=%.6g", e.T)
		if e.Dt > 0 {
			s += fmt.Sprintf(" dt=%.3g", e.Dt)
		}
	}
	return s
}

// Unwrap exposes the failure kind to errors.Is.
func (e *Error) Unwrap() error { return e.Kind }

// New builds a classified error for engine op.
func New(kind error, op, msg string) *Error {
	return &Error{Kind: kind, Op: op, Msg: msg}
}

// FromContext classifies a fired context for engine op: a context.Cause
// that is already a classified failure keeps its kind, a deadline is
// ErrBudget, and anything else is ErrCancelled. It returns nil while
// ctx (which may be nil) has not fired; callers add their own
// diagnostics to the returned error.
func FromContext(ctx context.Context, op string) *Error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	cause := context.Cause(ctx)
	kind := Kind(cause)
	if kind == nil {
		kind = ErrCancelled
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			kind = ErrBudget
		}
	}
	return &Error{Kind: kind, Op: op, Msg: cause.Error()}
}

// Kind returns the taxonomy sentinel err belongs to, or nil if err is
// not a classified simulation failure.
func Kind(err error) error {
	for _, k := range []error{ErrNoConvergence, ErrNumerical, ErrBudget, ErrCancelled, ErrInternal} {
		if errors.Is(err, k) {
			return k
		}
	}
	return nil
}

// IsRecoverable reports whether err is a per-simulation failure a
// caller may reasonably degrade around (convergence, numerical,
// budget, or an internal fault such as a panicking sweep item), as
// opposed to a cancellation that must propagate.
func IsRecoverable(err error) bool {
	return errors.Is(err, ErrNoConvergence) ||
		errors.Is(err, ErrNumerical) ||
		errors.Is(err, ErrBudget) ||
		errors.Is(err, ErrInternal)
}
