package simerr_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/core"
	"mtcmos/internal/mosfet"
	"mtcmos/internal/sched"
	"mtcmos/internal/simerr"
	"mtcmos/internal/spice"
)

// TestContextClassificationTable: the switch-level engine, the
// reference engine and the sweep executor classify a fired context by
// the one rule in FromContext. A plain deadline is the wall-clock
// budget in every layer.
func TestContextClassificationTable(t *testing.T) {
	fired := func(mk func() (context.Context, context.CancelFunc)) context.Context {
		ctx, cancel := mk()
		t.Cleanup(cancel)
		<-ctx.Done()
		return ctx
	}
	contexts := []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"WithCancel", fired(func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel
		}), simerr.ErrCancelled},
		{"WithTimeout", fired(func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), time.Nanosecond)
		}), simerr.ErrBudget},
		{"WithTimeoutCause", fired(func() (context.Context, context.CancelFunc) {
			return context.WithTimeoutCause(context.Background(), time.Nanosecond,
				simerr.New(simerr.ErrBudget, "test", "-timeout elapsed"))
		}), simerr.ErrBudget},
	}

	tech := mosfet.Tech07()
	c := circuits.InverterChain(&tech, 4, 20e-15)
	c.SleepWL = 5
	stim := circuit.Stimulus{
		Old: map[string]bool{"in": false}, New: map[string]bool{"in": true},
		TEdge: 1e-9, TRise: 50e-12,
	}
	layers := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"core", func(ctx context.Context) error {
			_, err := core.Simulate(c, stim, core.Options{Ctx: ctx})
			return err
		}},
		{"spice", func(ctx context.Context) error {
			_, err := spice.Run(c, stim, spice.RunOptions{Options: spice.Options{TStop: 4e-9, Ctx: ctx}})
			return err
		}},
		{"sched", func(ctx context.Context) error {
			_, err := sched.Map(ctx, 2, 4, func(i int) (int, error) { return i, nil })
			return err
		}},
	}
	for _, l := range layers {
		for _, cx := range contexts {
			err := l.run(cx.ctx)
			if simerr.Kind(err) != cx.want {
				t.Errorf("%s under %s: err = %v, want %v", l.name, cx.name, err, cx.want)
			}
			var se *simerr.Error
			if !errors.As(err, &se) || se.Op != l.name {
				t.Errorf("%s under %s: want a %s *simerr.Error, got %#v", l.name, cx.name, l.name, err)
			}
		}
	}
}

func TestFromContextLive(t *testing.T) {
	if err := simerr.FromContext(context.Background(), "core"); err != nil {
		t.Errorf("a live context must not classify: %v", err)
	}
	var none context.Context
	if err := simerr.FromContext(none, "core"); err != nil {
		t.Errorf("a nil context must not classify: %v", err)
	}
}
