package sim

import "runtime/debug"

// BuildInfo returns the version block the cmd binaries publish as the
// "build" introspection variable (obs.Server /vars/build): the simulator's
// versioned contracts — the semantic model version that stamps warmup
// checkpoints, and the checkpoint container format — plus whatever the Go
// toolchain stamped into the binary (module path and version, Go version,
// VCS revision). Operators correlate a live campaign with its checkpoints
// through this block, so it must never require a running simulation to
// produce.
func BuildInfo() map[string]any {
	info := map[string]any{
		"model_version": ModelVersion,
		"ckpt_format":   int(ckptFormat),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info["module"] = bi.Main.Path
		info["module_version"] = bi.Main.Version
		info["go_version"] = bi.GoVersion
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				info["vcs_revision"] = s.Value
			case "vcs.time":
				info["vcs_time"] = s.Value
			case "vcs.modified":
				info["vcs_modified"] = s.Value
			}
		}
	}
	return info
}
