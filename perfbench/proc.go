package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// Linux fixes it at 100 for every user-space ABI.
const clockTicks = 100

// parseStatCPU returns utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name in parentheses may hold spaces, so
// fields are counted from the last ')'.
func parseStatCPU(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	// After ")" come fields 3.. of proc(5); utime and stime are 14 and 15.
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusKB returns the value of a "<key>: <n> kB" line of
// /proc/<pid>/status, in KiB.
func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: malformed %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// cpuSeconds reads a process's user+system CPU time.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	t, err := parseStatCPU(string(b))
	return float64(t) / clockTicks, err
}

// peakRSSMiB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(b), "VmHWM")
	return float64(kb) / 1024, err
}

// parseStealTicks returns the steal and total jiffies of the aggregate
// "cpu" line of /proc/stat.
func parseStealTicks(stat string) (steal, total uint64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat cpu field %d: %w", i+1, err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// stealSample reads the machine's cumulative steal and total CPU jiffies.
func stealSample() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseStealTicks(string(b))
}

// stealPct is the share of CPU time stolen between two samples.
func stealPct(steal0, total0, steal1, total1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0) * 100
}
