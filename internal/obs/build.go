// Build identity: one helper answering "what binary is this" for the
// -version flag on every command and as an esm_build_info gauge, so a
// scraped fleet can be audited for version skew.

package obs

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// BuildVersion returns the module version baked into the binary by the
// go toolchain ("(devel)" for in-tree builds, "unknown" when no build
// info is embedded) and the Go runtime version.
func BuildVersion() (version, goVersion string) {
	version = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return version, runtime.Version()
}

// VersionString renders the one-line output of a command's -version
// flag.
func VersionString(tool string) string {
	v, gv := BuildVersion()
	return fmt.Sprintf("%s %s (%s)", tool, v, gv)
}

// RegisterBuildInfo adds the esm_build_info{version,go} gauge (constant
// 1) to reg.
func RegisterBuildInfo(reg *Registry) {
	v, gv := BuildVersion()
	reg.Collect(func(emit Emit) {
		emit("esm_build_info", "Build identity of the serving binary; constant 1.", KindGauge, 1, "version", v, "go", gv)
	})
}
