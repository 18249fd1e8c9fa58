package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule, so every reported value is one that was observed. xs is sorted
// in place; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// median is the lower-middle observed value of xs (sorting xs in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// interquartileMean is the mean of the middle half of xs (sorting xs in
// place): unlike the median it keeps averaging over every window when
// the host switches between a fast and a slow state for seconds at a
// time, and unlike the mean it drops the windows a burst of contention
// or a garbage collection hit hardest.
func interquartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := xs[len(xs)/4 : len(xs)-len(xs)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// classGeomean is the geometric mean, over classes, of each class's
// median latency in milliseconds.
func classGeomean(byClass map[string][]float64) float64 {
	meds := make([]float64, 0, len(byClass))
	for _, xs := range byClass {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return geomean(meds)
}

// resetPeakRSS collects garbage, returns freed memory to the OS and
// resets the kernel's resident-set high-water mark. It reports whether
// the kernel accepted the reset; the run record says which.
func resetPeakRSS() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return clearPeakRSS()
}

// clearPeakRSS resets the high-water mark (VmHWM) to the current
// resident set, so the next peakRSSMB covers only what follows.
func clearPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// windows stamps consecutive measurement windows of a timed loop with
// the peak resident set and the process CPU time of each. One peak over
// a whole run depends on where a garbage collection happened to fall,
// and one CPU total over a whole run on every burst of contention from
// the host's other tenants; a median or interquartile mean over windows
// depends on neither.
type windows struct {
	peaks []float64 // peak resident set per window, MB
	cpu   []float64 // process CPU time (user + system) per window, ms
	last  float64   // CPU time at the start of the current window
}

// begin starts the first window.
func (w *windows) begin() {
	clearPeakRSS()
	w.last = cpuMs()
}

// cut ends the current window and starts the next.
func (w *windows) cut() {
	now := cpuMs()
	w.peaks = append(w.peaks, peakRSSMB())
	w.cpu = append(w.cpu, now-w.last)
	w.last = now
	clearPeakRSS()
}

// tick cuts a window at every interval after start, up to and including
// deadline, so a whole-second budget gives one cut per second window.
func (w *windows) tick(start, deadline time.Time, every time.Duration) {
	for next := start.Add(every); !next.After(deadline); next = next.Add(every) {
		time.Sleep(time.Until(next))
		w.cut()
	}
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// hostStamp is a snapshot of what the host did to the process: CPU time
// given, time stolen by the hypervisor, page faults and preemptions.
// Differences between two stamps go into the run record, so a run slowed
// by its neighbours can be told from one slowed by the program.
type hostStamp struct {
	UserMs, SysMs, StealMs float64
	MinFlt, MajFlt, NIvCsw int64
}

func stampHost() hostStamp {
	var h hostStamp
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		h.UserMs = float64(ru.Utime.Nano()) / 1e6
		h.SysMs = float64(ru.Stime.Nano()) / 1e6
		h.MinFlt, h.MajFlt, h.NIvCsw = ru.Minflt, ru.Majflt, ru.Nivcsw
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		// cpu  user nice system idle iowait irq softirq steal ...
		f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
		if len(f) > 8 {
			if st, err := strconv.ParseFloat(f[8], 64); err == nil {
				h.StealMs = st * 10 // USER_HZ = 100
			}
		}
	}
	return h
}

// cpuMs is the process's CPU time so far (user + system), in ms.
func cpuMs() float64 {
	h := stampHost()
	return h.UserMs + h.SysMs
}

func (h hostStamp) since(start hostStamp) hostStamp {
	return hostStamp{
		UserMs: h.UserMs - start.UserMs, SysMs: h.SysMs - start.SysMs, StealMs: h.StealMs - start.StealMs,
		MinFlt: h.MinFlt - start.MinFlt, MajFlt: h.MajFlt - start.MajFlt, NIvCsw: h.NIvCsw - start.NIvCsw,
	}
}
