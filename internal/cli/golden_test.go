package cli

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"mtcmos"
)

// TestToolOutputsGolden pins what the three simulation tools print for
// the paper's benchmarks: every experiment but speedup (whose rows are
// wall-clock times) on the switch-level engine, mtsize with its
// reference-engine standby check, and mtsim's switch-level summary.
// The outputs are deterministic at any worker count; refresh them with
// go test ./internal/cli -update after an intended change.
func TestToolOutputsGolden(t *testing.T) {
	var ids []string
	for _, e := range mtcmos.Experiments() {
		if e.ID != "speedup" {
			ids = append(ids, e.ID)
		}
	}
	cases := []struct {
		golden string
		run    func([]string, io.Writer) error
		args   [][]string
	}{
		{"mtexp.golden", Exp, [][]string{{"-e", strings.Join(ids, ","), "-fast", "-mult", "4", "-j", "2"}}},
		{"mtsize.golden", Size, [][]string{
			{"-circuit", "tree", "-standby"},
			{"-circuit", "adder", "-standby"},
			{"-circuit", "mult", "-bits", "4", "-standby"},
			{"-circuit", "select", "-bits", "4", "-standby"},
		}},
		{"mtsim.golden", Sim, [][]string{
			{"-circuit", "tree"},
			{"-circuit", "chain"},
			{"-circuit", "adder"},
			{"-circuit", "mult", "-bits", "4"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var buf bytes.Buffer
			for _, args := range tc.args {
				fmt.Fprintf(&buf, "$ %s\n", strings.Join(args, " "))
				if err := tc.run(args, &buf); err != nil {
					t.Fatalf("%v: %v", args, err)
				}
			}
			checkGolden(t, tc.golden, buf.Bytes())
		})
	}
}
