package experiments

import "testing"

// TestExperimentsSolverInvariant renders every registered experiment,
// reference-engine columns included, once serially and once on two
// workers, and requires byte-identical output. The reference solver
// keeps all of its mutable state (Newton workspace, iterate, step
// control) per run, so the transients and DC solves of neighbouring
// sweep points may run concurrently without touching one another; any
// scratch shared between solves would show up here as a diverging
// cell. Small circuits and a two-vector reference sweep keep the full
// registry test-sized.
func TestExperimentsSolverInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep")
	}
	render := func(id string, workers int) string {
		cfg := Config{MultiplierBits: 4, AdderBits: 2, SpiceVectors: 2, Workers: workers}
		e, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s (-j %d): %v", id, workers, err)
		}
		return outputKey(out)
	}
	for _, e := range Registry() {
		t.Run(e.ID, func(t *testing.T) {
			if e.ID == "speedup" {
				// Its runtime table reports measured wall-clock, which
				// differs between any two runs of the same config; a
				// schedule comparison there would only compare noise.
				t.Skip("reports measured wall-clock")
			}
			serial := render(e.ID, 1)
			if got := render(e.ID, 2); got != serial {
				t.Errorf("%s renders differently on 2 workers:\n%s\nvs serial:\n%s",
					e.ID, got, serial)
			}
		})
	}
}
