package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailCandidates are the percentiles the benchmark may report as a tail,
// highest first.
var tailCandidates = []float64{99.99, 99.9, 99, 90, 50}

// rank is the nearest-rank index (1-based) of the p-th percentile of n
// samples. The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(r, 1)
}

// highestTail returns the highest candidate percentile that leaves at
// least minTail of n samples beyond it, or false when even the median
// does not.
func highestTail(n int) (float64, bool) {
	for _, p := range tailCandidates {
		if n-rank(n, p) >= minTail {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
// It refuses a percentile with fewer than minTail samples beyond it.
func percentile(sorted []int64, p float64) (int64, error) {
	n := len(sorted)
	if n == 0 || n-rank(n, p) < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples in all", p, minTail, n)
	}
	return sorted[rank(n, p)-1], nil
}

// latencies collects samples in nanoseconds.
type latencies []int64

func (l latencies) sorted() []int64 {
	s := append([]int64(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// pctUs returns the p-th percentile in microseconds.
func (l latencies) pctUs(p float64) (float64, error) {
	v, err := percentile(l.sorted(), p)
	return float64(v) / 1e3, err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// round is one closed-loop plus open-loop segment of KV traffic.
type round struct {
	index          int
	stealPct       float64 // CPU the hypervisor gave to other guests
	opsS           float64
	getLat, setLat latencies
}

// MarshalJSON stamps a round compactly.
func (rd round) MarshalJSON() ([]byte, error) {
	p50, _ := rd.getLat.pctUs(50) // 0 when the round has too few GETs
	return []byte(fmt.Sprintf(`{"i":%d,"steal_pct":%.2f,"ops_s":%.0f,"get_p50_us":%.1f,"gets":%d,"sets":%d}`,
		rd.index, rd.stealPct, rd.opsS, p50, len(rd.getLat), len(rd.setLat))), nil
}

// stealMargin is how many percentage points more steal than the
// run's calmest round mark a round as disturbed.
const stealMargin = 5.0

// calm returns the rounds, in order, whose steal is within stealMargin
// of the run's calmest round: a round that lost that much more CPU to
// other guests measured the neighbours, not the program. When no round
// was disturbed, every round is kept. The choice looks only at steal,
// never at the measured values.
func calm(rounds []round) []round {
	least := math.Inf(1)
	for _, rd := range rounds {
		least = min(least, rd.stealPct)
	}
	var kept []round
	for _, rd := range rounds {
		if rd.stealPct <= least+stealMargin {
			kept = append(kept, rd)
		}
	}
	return kept
}
