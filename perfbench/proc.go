package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTick = 100

// procSample is one reading of a process's /proc counters.
type procSample struct {
	cpuTicks uint64 // utime + stime, all threads
	ctxsw    uint64 // voluntary + nonvoluntary switches, summed over threads
	syscw    uint64 // write syscalls (/proc/<pid>/io)
	wchar    uint64 // bytes passed to write syscalls
	rssBytes uint64
}

func (s procSample) cpuMicros() float64 { return float64(s.cpuTicks) * 1e6 / clockTick }

// readProc samples /proc/<pid>/{stat,io,status} and the per-thread
// status files.
func readProc(pid int) (procSample, error) {
	var s procSample
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return s, fmt.Errorf("malformed %s/stat", dir)
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("short %s/stat", dir)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("malformed times in %s/stat", dir)
	}
	s.cpuTicks = ut + st

	io, err := readKV(filepath.Join(dir, "io"))
	if err != nil {
		return s, err
	}
	s.syscw, s.wchar = io["syscw"], io["wchar"]

	st0, err := readKV(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	s.rssBytes = st0["VmRSS"] * 1024

	// /proc/<pid>/status counts the main thread's switches only; the
	// runtime's work happens on the other threads.
	tasks, err := os.ReadDir(filepath.Join(dir, "task"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		kv, err := readKV(filepath.Join(dir, "task", t.Name(), "status"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		s.ctxsw += kv["voluntary_ctxt_switches"] + kv["nonvoluntary_ctxt_switches"]
	}
	return s, nil
}

// readKV parses "name: value [unit]" lines, keeping numeric values.
func readKV(path string) (map[string]uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseUint(fields[0], 10, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}
