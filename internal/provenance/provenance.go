// Package provenance stamps benchmark reports with the facts needed to
// compare them across machines and commits: toolchain version, CPU
// budget, the git commit the binary was built from, and a UTC timestamp.
// Every report the benchmark under bench/ writes embeds one of these, so
// a reader comparing two reports side by side can tell whether a delta is
// a code change, a machine change, or a stale file — without out-of-band
// notes.
package provenance

import (
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Provenance is the per-report build/environment stamp.
type Provenance struct {
	// GoVersion is the toolchain that built the reporting binary
	// (runtime.Version()), e.g. "go1.24.0".
	GoVersion string `json:"go_version"`
	// GOOS and GOARCH identify the platform the report was produced on.
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// GOMAXPROCS is the CPU budget the run executed under.
	GOMAXPROCS int `json:"gomaxprocs"`
	// NumCPU is the machine's logical CPU count — GOMAXPROCS may be
	// lower (taskset, GOMAXPROCS env), and throughput numbers only
	// compare like-for-like when both match.
	NumCPU int `json:"num_cpu"`
	// GitCommit is the hash the binary was built from: the module build
	// info's vcs.revision when the toolchain stamped one, otherwise the
	// working tree's HEAD via git. Empty when neither is available.
	GitCommit string `json:"git_commit,omitempty"`
	// GitDirty reports uncommitted changes at build/run time; a dirty
	// report is not attributable to GitCommit alone.
	GitDirty bool `json:"git_dirty,omitempty"`
	// GeneratedUTC is the report creation time in RFC 3339 UTC.
	GeneratedUTC string `json:"generated_utc"`
}

// Collect gathers the stamp for a report generated now. It never fails:
// fields that cannot be determined (no git binary, no VCS stamp) are
// left empty rather than aborting a benchmark that already ran.
func Collect() Provenance {
	p := Provenance{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GeneratedUTC: time.Now().UTC().Format(time.RFC3339),
	}
	p.GitCommit, p.GitDirty = gitState()
	return p
}

// gitState resolves the commit hash and dirty flag, preferring the VCS
// stamp the Go toolchain embeds at build time (exact for the built
// binary) and falling back to asking git about the working tree (the
// `go run` path, which does not stamp VCS info).
func gitState() (commit string, dirty bool) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if commit != "" {
		return commit, dirty
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "", false
	}
	commit = strings.TrimSpace(string(out))
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err == nil && len(strings.TrimSpace(string(status))) > 0 {
		dirty = true
	}
	return commit, dirty
}
