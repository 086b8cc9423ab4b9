// Package buildinfo reports the binary's build identity — module
// version, VCS revision, and Go toolchain — via
// runtime/debug.ReadBuildInfo. Every tool's -version flag prints it.
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

var (
	once     sync.Once
	version  string
	revision string
)

func load() {
	once.Do(func() {
		version, revision = "(devel)", "unknown"
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		var rev string
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			revision = rev
			if dirty {
				revision += "-dirty"
			}
		}
	})
}

// Version is the module version ("(devel)" for source builds).
func Version() string {
	load()
	return version
}

// Revision is the VCS revision the binary was built from, truncated
// to 12 hex digits, with a "-dirty" suffix when the working tree had
// local modifications; "unknown" when the build carried no VCS
// stamping (go test binaries, GOFLAGS=-buildvcs=false).
func Revision() string {
	load()
	return revision
}

// String is the one-line banner the -version flags print.
func String(tool string) string {
	return fmt.Sprintf("%s %s rev %s %s %s/%s",
		tool, Version(), Revision(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
