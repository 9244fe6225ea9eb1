package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp records what a later comparison needs to tell whether two results
// come from like-for-like runs: the host, the toolchain, the source, and
// the workload's own settings. Dataset size and the checkpoint filesystem
// are added by the set-up that learns them.
func stamp(r *report, cfg config, o options) {
	r.detail["workload"] = o.workload
	r.detail["workload_seed"] = o.seed
	r.detail["seconds"] = o.seconds
	r.detail["trace"] = o.trace
	r.detail["nproc"] = runtime.NumCPU()
	r.detail["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.detail["cpu_model"] = cpuModel()
	r.detail["go_version"] = runtime.Version()
	r.detail["commit"] = o.commit
	r.detail["sampling_workers"] = cfg.Workers
	r.detail["dataset"] = cfg.Dataset
	r.detail["scale"] = cfg.Scale
	r.detail["algo"] = cfg.Algo
	r.detail["cost"] = cfg.Cost
	r.detail["k"] = cfg.K
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType is the filesystem type of the mount holding dir, from
// /proc/mounts (the longest mount point that prefixes dir), or "unknown".
func fsType(dir string) string {
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}
