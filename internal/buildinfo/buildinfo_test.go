package buildinfo

import (
	"runtime"
	"strings"
	"testing"
)

func TestBuildInfoNeverEmpty(t *testing.T) {
	if Version() == "" {
		t.Fatal("Version() is empty")
	}
	if Revision() == "" {
		t.Fatal("Revision() is empty")
	}
}

func TestStringCarriesToolAndToolchain(t *testing.T) {
	s := String("mtexp")
	for _, want := range []string{"mtexp", Revision(), runtime.Version()} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}
