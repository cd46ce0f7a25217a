package obs

import (
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"binpart/internal/cache"
)

// Manifest is the run record written alongside sweep output: what ran
// (tool, arguments, toolchain, source revision), how long it took, the
// per-stage span totals, and the cache accounting. The cache numbers are
// snapshots of the same counters -stats prints, so a manifest
// reconciles exactly with the stats table of the run that produced it.
type Manifest struct {
	Tool    string                 `json:"tool"`
	Trace   string                 `json:"trace,omitempty"`
	Args    []string               `json:"args,omitempty"`
	Go      string                 `json:"go"`
	OS      string                 `json:"os"`
	Arch    string                 `json:"arch"`
	Git     string                 `json:"git,omitempty"`
	Start   time.Time              `json:"start"`
	WallUS  int64                  `json:"wall_us"`
	Workers int                    `json:"workers"`
	Spans   int                    `json:"spans"`
	Stages  []StageTotal           `json:"stages,omitempty"`
	Caches  map[string]cache.Stats `json:"caches,omitempty"`
	// GC is the collector's work between the run's open and close.
	GC GCStats `json:"gc"`
	// Interrupted marks a run cut short by a signal: the manifest and
	// trace cover only the work that finished before the cancel.
	Interrupted bool `json:"interrupted,omitempty"`
}

// BuildManifest assembles a manifest from a finished run. rec may be nil
// (no spans were recorded); caches may be nil (caching was disabled).
func BuildManifest(tool string, args []string, workers int, rec *Recorder, caches map[string]cache.Stats) Manifest {
	m := Manifest{
		Tool:    tool,
		Args:    args,
		Go:      runtime.Version(),
		OS:      runtime.GOOS,
		Arch:    runtime.GOARCH,
		Git:     GitDescribe("."),
		Workers: workers,
		Caches:  caches,
	}
	if rec != nil {
		m.Trace = rec.TraceID()
		m.Start = rec.epoch
		m.WallUS = time.Since(rec.epoch).Microseconds()
		m.Stages = rec.StageTotals()
		for _, st := range m.Stages {
			m.Spans += st.Spans
		}
	}
	return m
}

// Write marshals the manifest as indented JSON to path.
func (m Manifest) Write(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// GitDescribe identifies the source revision under dir, best effort:
// `git describe --always --dirty --tags`, falling back to "" when git or
// the repository is unavailable (manifests must never fail a run).
func GitDescribe(dir string) string {
	cmd := exec.Command("git", "describe", "--always", "--dirty", "--tags")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
