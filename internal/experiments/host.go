package experiments

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// Host records the machine and build a benchmark file was measured on,
// so numbers from different files can be told apart.
type Host struct {
	CPU        string
	GOMAXPROCS int
	GoVersion  string
	// Commit is the VCS revision stamped into the binary, suffixed
	// "+dirty" when the working tree had local changes, or "unknown" when
	// the build carries no VCS stamp (go run and go test do not stamp).
	Commit string
}

func (h Host) String() string {
	return fmt.Sprintf("%s, GOMAXPROCS=%d, %s, commit %s", h.CPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
}

// hostInfo describes the running process's machine and build.
func hostInfo() Host {
	h := Host{CPU: cpuModel(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.Commit != "unknown" {
			h.Commit += "+dirty"
		}
	}
	return h
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or the
// architecture where that file is missing or names none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}
