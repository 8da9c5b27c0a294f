package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is one reading of the whole-process counters the
// per-op cost metrics are deltas of.
type procSample struct {
	mallocs    uint64
	writeBytes int64 // /proc/self/io write_bytes (-1: unavailable)
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{mallocs: ms.Mallocs, writeBytes: procIO("write_bytes")}
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procIO reads one counter of /proc/self/io, or -1 when the file or the
// key is missing.
func procIO(key string) int64 { return procField("/proc/self/io", key+":") }

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	if kb < 0 {
		return 0
	}
	return float64(kb) / 1024
}

// procField returns the first integer after prefix in a "key: value"
// style proc file, or -1.
func procField(path, prefix string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line[len(prefix):])
		if len(fields) == 0 {
			return -1
		}
		v, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return -1
		}
		return v
	}
	return -1
}

// envInfo is recorded in every result file: a number measured on another
// host shape is not comparable, and drift in these explains drift in the
// metrics.
type envInfo struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	FSType     string  `json:"fs_type"`
	Scale      float64 `json:"scale_factor"`
}

func collectEnv(dataDir string) envInfo {
	e := envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		FSType:     "unknown",
		Scale:      scaleFactor,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		e.FSType = "0x" + strconv.FormatInt(int64(st.Type), 16)
	}
	return e
}
