package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// hostBlock describes the machine a result was measured on, read from the
// Go runtime and /proc.
type hostBlock struct {
	CPUModel     string  `json:"cpu_model"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	OS           string  `json:"os"`
	Arch         string  `json:"arch"`
	Kernel       string  `json:"kernel"`
	MemTotalMB   float64 `json:"mem_total_mb"`
	FsyncProbeUS float64 `json:"fsync_probe_us"`
}

func probeHost(dir string) hostBlock {
	h := hostBlock{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	h.CPUModel = procField("/proc/cpuinfo", "model name")
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	var kb float64
	if f := strings.Fields(procField("/proc/meminfo", "MemTotal")); len(f) > 0 {
		for _, c := range f[0] {
			kb = kb*10 + float64(c-'0')
		}
	}
	h.MemTotalMB = kb / 1024
	h.FsyncProbeUS = fsyncProbe(dir)
	return h
}

// procField returns the value of the first "key: value" line of a /proc
// file whose key matches.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// fsyncProbe returns the median latency of 16 overwrite+fsync rounds of one
// 4 KiB block in dir — the durability cost every WAL commit pays.
func fsyncProbe(dir string) float64 {
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.Create(path)
	if err != nil {
		return 0
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 16; i++ {
		buf[0] = byte(i)
		start := time.Now()
		if _, err := f.WriteAt(buf, 0); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(us)
}
