package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// latencySummary is the median and tail of one set of latencies, in ms.
type latencySummary struct {
	n              int
	p50, tail, pct float64
}

// summarize returns the median of lat and its tail: the highest percentile
// with at least 10 samples beyond it, i.e. the 11th-largest sample, whose
// percentile rank is 100·(n−10)/n. Below 11 samples the tail is the
// maximum.
func summarize(lat []float64) latencySummary {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return latencySummary{}
	}
	out := latencySummary{n: n, p50: quantile(s, 0.5), tail: s[n-1], pct: 100}
	if n >= 11 {
		out.tail = s[n-11]
		out.pct = 100 * float64(n-10) / float64(n)
	}
	return out
}

func (s latencySummary) tailDetail() string {
	if s.n < 11 {
		return fmt.Sprintf("max of %d samples: fewer than 11", s.n)
	}
	return fmt.Sprintf("p%.1f of %d samples, 10 beyond it", s.pct, s.n)
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// rssProbe measures this process's peak resident set over intervals:
// reset starts one, peak reads the VmHWM reached since. Where the kernel
// refuses the reset, every interval reads the process-lifetime peak.
type rssProbe struct{ resettable bool }

func newRSSProbe() *rssProbe {
	p := &rssProbe{}
	p.resettable = p.resetHWM() == nil
	p.settle()
	return p
}

// resetHWM resets VmHWM to the current resident set.
func (p *rssProbe) resetHWM() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func (p *rssProbe) reset() {
	if p.resettable {
		_ = p.resetHWM() // it worked once; a failure only widens the interval
	}
}

// settle returns garbage to the OS before an interval starts, so a peak
// measures what the interval itself holds: the benchmark's input
// generation, or a session the caller dropped. The pause lets the engine
// goroutines of the last valuation exit, since until then they still
// reference its session.
func (p *rssProbe) settle() {
	time.Sleep(100 * time.Millisecond)
	debug.FreeOSMemory()
	p.reset()
}

func (p *rssProbe) peak() (float64, error) { return peakRSSMB(0) }

// peakRSSMB reads the peak resident set (VmHWM) of a process in MiB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM in %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
