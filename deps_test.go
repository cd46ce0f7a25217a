package binpart

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBatchCommandsLinkNoHTTP keeps the batch commands lean: experiments
// and bparts must not depend on the network stack, which only bpartd's
// ops listener needs. Linking net/http and net/http/pprof roughly doubles
// their binaries and start-up cost.
func TestBatchCommandsLinkNoHTTP(t *testing.T) {
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH: cannot list the commands' dependencies")
	}
	out, err := exec.Command(gotool, "list", "-deps", "./cmd/experiments", "./cmd/bparts").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		switch pkg {
		case "net", "net/http", "net/http/pprof":
			t.Errorf("a batch command depends on %s", pkg)
		}
	}
}
