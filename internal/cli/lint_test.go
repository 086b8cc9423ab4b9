package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/cli -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestLintBrokenDeckText(t *testing.T) {
	var buf bytes.Buffer
	err := Lint([]string{"testdata/broken.sp"}, &buf)
	if err == nil {
		t.Fatal("broken deck must make mtlint return an error (nonzero exit)")
	}
	out := buf.String()
	for _, code := range []string{"MT001", "MT002", "MT007"} {
		if !strings.Contains(out, code) {
			t.Errorf("missing %s in output:\n%s", code, out)
		}
	}
	checkGolden(t, "broken.txt.golden", buf.Bytes())
}

func TestLintBrokenDeckJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := Lint([]string{"-json", "testdata/broken.sp"}, &buf); err == nil {
		t.Fatal("broken deck must make mtlint return an error in JSON mode too")
	}
	var reports []struct {
		File        string `json:"file"`
		Diagnostics []struct {
			Code     string `json:"code"`
			Severity string `json:"severity"`
			Subject  string `json:"subject"`
		} `json:"diagnostics"`
		Errors int `json:"errors"`
	}
	if err := json.Unmarshal(buf.Bytes(), &reports); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(reports) != 1 || reports[0].Errors != 3 {
		t.Errorf("unexpected report shape: %+v", reports)
	}
	if d := reports[0].Diagnostics[0]; d.Code != "MT001" || d.Severity != "error" {
		t.Errorf("first diagnostic wrong: %+v", d)
	}
	checkGolden(t, "broken.json.golden", buf.Bytes())
}

func TestLintCleanDeck(t *testing.T) {
	var buf bytes.Buffer
	if err := Lint([]string{"testdata/clean.sp"}, &buf); err != nil {
		t.Fatalf("clean deck must lint clean: %v\n%s", err, buf.String())
	}
	checkGolden(t, "clean.txt.golden", buf.Bytes())
}

func TestLintSeverityThreshold(t *testing.T) {
	// At -severity error the clean deck reports nothing but the
	// summary, and info-level findings never appear.
	var buf bytes.Buffer
	if err := Lint([]string{"-severity", "error", "testdata/clean.sp"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(strings.TrimSpace(buf.String()), "\n") != 0 {
		t.Errorf("expected only the summary line:\n%s", buf.String())
	}
	if err := Lint([]string{"-severity", "bogus", "testdata/clean.sp"}, &buf); err == nil {
		t.Error("bad severity must be rejected")
	}
}

func TestLintSyntaxErrorIsDiagnostic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "syntax.sp")
	if err := os.WriteFile(path, []byte("deck\nQ1 a b c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Lint([]string{path}, &buf); err == nil {
		t.Fatal("unparseable deck must exit nonzero")
	}
	if !strings.Contains(buf.String(), "MT000") || !strings.Contains(buf.String(), "line 2") {
		t.Errorf("parse failure should surface as MT000 with its line:\n%s", buf.String())
	}
}

func TestLintRulesListing(t *testing.T) {
	var buf bytes.Buffer
	if err := Lint([]string{"-rules"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, code := range []string{"MT001", "MT007", "MT012", "MT017"} {
		if !strings.Contains(out, code) {
			t.Errorf("rule listing missing %s:\n%s", code, out)
		}
	}
}

func TestSimRefusesBrokenDeck(t *testing.T) {
	var buf bytes.Buffer
	err := Sim([]string{"-netlist", "testdata/broken.sp"}, &buf)
	if err == nil {
		t.Fatal("mtsim must refuse a deck with lint errors")
	}
	if !strings.Contains(err.Error(), "MT007") || !strings.Contains(err.Error(), "-nolint") {
		t.Errorf("refusal should cite findings and the escape hatch: %v", err)
	}
	// The escape hatch runs the deck anyway.
	if err := Sim([]string{"-netlist", "testdata/broken.sp", "-nolint", "-tstop", "1n"}, &buf); err == nil {
		t.Error("engine should still reject the zero-width device downstream")
	} else if strings.Contains(err.Error(), "lint") {
		t.Errorf("-nolint must bypass the lint gate, got %v", err)
	}
}

func TestSimCleanDeckPassesLintGate(t *testing.T) {
	var buf bytes.Buffer
	if err := Sim([]string{"-netlist", "testdata/clean.sp", "-tstop", "2n"}, &buf); err != nil {
		t.Fatalf("clean deck should simulate: %v", err)
	}
	if !strings.Contains(buf.String(), "steps:") {
		t.Errorf("missing transient summary:\n%s", buf.String())
	}
}
