package cli

import (
	"flag"
	"fmt"
	"io"

	"mtcmos/internal/buildinfo"
)

// versionFlag registers the -version flag every tool carries.
func versionFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("version", false, "print build identity (version, VCS revision, toolchain) and exit")
}

func printVersion(w io.Writer, tool string) {
	fmt.Fprintln(w, buildinfo.String(tool))
}
