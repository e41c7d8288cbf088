package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// leafShares returns each layer's share of CPU time in the profile at
// path, keyed by layer name (see layerOf), and the profile's total CPU
// time in ns. It reads the flat (leaf-frame) column of `go tool pprof
// -top`, from the toolchain that built the benchmark.
func leafShares(path string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ns", path)
	// pprof keeps nothing for -top; its scratch directory stays next to
	// the profile all the same.
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof %s: %v: %s", path, err, strings.TrimSpace(stderr.String()))
	}
	byLayer := map[string]float64{}
	var total float64
	rows := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			// The header row "flat flat% sum% cum cum%" precedes one row
			// per function: flat, flat%, sum%, cum, cum%, name.
			rows = len(f) == 5 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, 0, fmt.Errorf("go tool pprof %s: row %q: %v", path, sc.Text(), err)
		}
		byLayer[layerOf(strings.Join(f[5:], " "))] += flat
		total += flat
	}
	if !rows || total == 0 {
		return nil, 0, fmt.Errorf("go tool pprof %s: no samples", path)
	}
	for k := range byLayer {
		byLayer[k] /= total
	}
	return byLayer, total, nil
}

// layerOf maps a fully qualified function name to the repository layer
// that owns it: internal/<x> is layer x, except that internal/systems/
// flowrule is "flowrule" and the other internal/systems/* packages share
// "systems"; the Go runtime (allocation, GC, scheduling) is "runtime";
// the benchmark's own code is "bench"; the rest of the standard library
// is "stdlib".
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain slashes and dots
	}
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "":
		return "unknown"
	case pkg == "mindgap/internal/systems/flowrule":
		return "flowrule"
	case strings.HasPrefix(pkg, "mindgap/internal/systems/"):
		return "systems"
	case strings.HasPrefix(pkg, "mindgap/internal/"):
		rest := strings.TrimPrefix(pkg, "mindgap/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(pkg, "mindgap/perfbench"):
		return "bench"
	case strings.HasPrefix(pkg, "mindgap"):
		return "mindgap"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	default:
		return "stdlib"
	}
}
