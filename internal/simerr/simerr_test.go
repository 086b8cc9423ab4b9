package simerr

import (
	"errors"
	"strings"
	"testing"
)

func TestErrorWrapsKind(t *testing.T) {
	e := &Error{Kind: ErrNoConvergence, Op: "spice", Node: "vgnd", T: 1e-9, Dt: 1e-15}
	if !errors.Is(e, ErrNoConvergence) {
		t.Fatal("errors.Is must match the kind sentinel")
	}
	if errors.Is(e, ErrBudget) {
		t.Fatal("errors.Is must not match other kinds")
	}
	msg := e.Error()
	for _, want := range []string{"spice", "no convergence", "vgnd", "t=1e-09"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
}

func TestKindClassifier(t *testing.T) {
	if Kind(New(ErrBudget, "core", "events")) != ErrBudget {
		t.Fatal("Kind must recover the sentinel")
	}
	if Kind(errors.New("plain")) != nil {
		t.Fatal("Kind of an unclassified error must be nil")
	}
}

func TestIsRecoverable(t *testing.T) {
	for _, k := range []error{ErrNoConvergence, ErrNumerical, ErrBudget, ErrInternal} {
		if !IsRecoverable(New(k, "spice", "")) {
			t.Errorf("%v must be recoverable", k)
		}
	}
	if IsRecoverable(New(ErrCancelled, "spice", "")) {
		t.Fatal("cancellation must not be recoverable")
	}
	if IsRecoverable(errors.New("plain")) {
		t.Fatal("unclassified errors must not be recoverable")
	}
}
