package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: fewer than ten and the percentile is set by a handful of
// outliers, so the run fails instead of reporting it.
const minBeyond = 10

// percentile returns the q-quantile (0 < q <= 1) of samples by the
// nearest-rank rule, and how many samples rank beyond it. A failed
// request is recorded as +Inf latency, so failures push the tail up
// instead of dropping out of the sample.
func percentile(samples []float64, q float64) (value float64, beyond int) {
	if len(samples) == 0 {
		return math.NaN(), 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank], len(sorted) - 1 - rank
}

// tailPercentile is percentile with the minBeyond rule enforced.
func tailPercentile(samples []float64, q float64) (float64, error) {
	v, beyond := percentile(samples, q)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g rests on %d samples beyond it (%d samples in all); need at least %d",
			100*q, beyond, len(samples), minBeyond)
	}
	return v, nil
}

// median is the middle value (mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive ratios. It sums logs in
// the given order, so equal inputs give bit-identical results.
func geomean(ratios []float64) (float64, error) {
	if len(ratios) == 0 {
		return 0, fmt.Errorf("geometric mean of no ratios")
	}
	var sum float64
	for _, r := range ratios {
		if !(r > 0) || math.IsInf(r, 0) {
			return 0, fmt.Errorf("geometric mean of non-positive or infinite ratio %v", r)
		}
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(ratios))), nil
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// userHZ is the kernel's USER_HZ, the unit of the utime and stime
// fields of /proc/<pid>/stat. It is 100 on every Linux architecture Go
// supports.
const userHZ = 100

// parseProcStat returns utime+stime of a /proc/<pid>/stat line as a
// duration. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(line string) (time.Duration, error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command name in %q", line)
	}
	// After the name, fields[0] is field 3 (state); utime and stime
	// are fields 14 and 15.
	fields := strings.Fields(line[end+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(fields))
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: cpu time field %q: %w", f, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// parseStatusKB returns a kB field of a /proc/<pid>/status file
// (VmRSS, VmHWM, ...) in bytes.
func parseStatusKB(status, field string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", field, line)
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %s %q: %w", field, fields[0], err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("proc status: no %s line", field)
}

// windows is how many parts a timed phase is cut into for the windowed
// statistics. A burst of contention from outside the benchmark skews
// one or two windows; the median over the windows ignores it.
const windows = 7

// windowThroughput is the median over windows equal slices of span of
// the verified responses completed per second in each. samples are in
// completion order.
func windowThroughput(samples []sample, span time.Duration) float64 {
	width := span / windows
	counts := make([]float64, windows)
	for _, s := range samples {
		if math.IsInf(s.ms, 1) {
			continue
		}
		counts[min(int(s.done/width), windows-1)]++
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return median(counts)
}

// windowTail is the median of the q-quantile latencies of consecutive
// runs of samples (in completion order), cut into as many runs as
// hold minBeyond samples beyond the quantile each, at most windows.
func windowTail(samples []sample, q float64) (float64, error) {
	perRun := int(math.Ceil(minBeyond / (1 - q)))
	runs := max(1, min(windows, len(samples)/perRun))
	tails := make([]float64, runs)
	for i := range runs {
		lo, hi := i*len(samples)/runs, (i+1)*len(samples)/runs
		lat := make([]float64, 0, hi-lo)
		for _, s := range samples[lo:hi] {
			lat = append(lat, s.ms)
		}
		v, err := tailPercentile(lat, q)
		if err != nil {
			return 0, err
		}
		tails[i] = v
	}
	return median(tails), nil
}
