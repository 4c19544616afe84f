package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p90 needs at least 100 samples, a p50 at least 20.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100)
// and whether at least minTail samples lie strictly above its rank.
func percentile(xs []float64, p int) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := (p*n+99)/100 - 1 // ceil(p·n/100) − 1
	if k < 0 {
		k = 0
	}
	return s[k], n-1-k >= minTail
}

// samplesFor returns the least sample count at which the p-th percentile
// has minTail samples beyond it.
func samplesFor(p int) int {
	n := 1
	for n-(p*n+99)/100 < minTail {
		n++
	}
	return n
}

// tailValue applies the reporting rule: the p-th percentile when enough
// samples lie beyond it, otherwise the largest sample, which bounds that
// percentile from above. capped reports which of the two was returned.
func tailValue(xs []float64, p int) (v float64, capped bool) {
	v, ok := percentile(xs, p)
	if ok {
		return v, false
	}
	for _, x := range xs {
		v = math.Max(v, x)
	}
	return v, true
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// validName reports whether s is a usable metric name: 1 to 64 letters,
// digits, '_', '.' and '-', starting with a letter or a digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// interval is one timed call, as offsets on a common clock.
type interval struct{ start, end time.Duration }

func (iv interval) len() time.Duration { return iv.end - iv.start }

// unionLen returns the length of the union of the intervals clipped to
// clip: time during which at least one of them was running.
func unionLen(ivs []interval, clip interval) time.Duration {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < clip.start {
			iv.start = clip.start
		}
		if iv.end > clip.end {
			iv.end = clip.end
		}
		if iv.end > iv.start {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total time.Duration
	var cur interval
	for i, iv := range s {
		if i == 0 || iv.start > cur.end {
			total += cur.len()
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.len()
}

// selfTime is a span's own time: its length minus the part of it that
// its child spans cover. Overlapping children count once.
func selfTime(span interval, children []interval) time.Duration {
	return span.len() - unionLen(children, span)
}
