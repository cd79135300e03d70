package main

// The benchmark's arithmetic: the percentile rule, span self times, the
// engine breakdown derived from a query trace, open-loop lateness and
// failure accounting. Everything here is pure so stats_test.go can pin it.

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending) xs:
// the smallest sample with at least a share q of the samples at or below
// it. NaN for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailQ is the percentile a tail metric reports for n samples: want when at
// least minTail samples lie beyond it, otherwise the highest quantile that
// still leaves minTail beyond it (never below the median). The nearest-rank
// q-quantile of n samples has n-ceil(q·n) samples beyond it.
func tailQ(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := want
	if beyond := n - int(math.Ceil(q*float64(n))); beyond < minTail {
		q = float64(n-minTail) / float64(n)
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// summary is one timing distribution reduced to the numbers reported.
type summary struct {
	N      int
	Median float64
	Tail   float64 // value at TailQ
	TailQ  float64 // the percentile actually reported as the tail
}

// summarize sorts xs in place and reduces it; want is the tail percentile
// asked for (e.g. 0.99), lowered by tailQ when the sample is too small.
func summarize(xs []float64, want float64) summary {
	sort.Float64s(xs)
	s := summary{N: len(xs), TailQ: tailQ(len(xs), want)}
	s.Median = quantile(xs, 0.5)
	s.Tail = quantile(xs, s.TailQ)
	return s
}

// median of xs (sorted in place); NaN for no samples.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// span is one timed interval in the benchmark's span recorder. Times are
// nanoseconds on the run's monotonic timeline.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0 for a root span
	Req    int64  `json:"req"`              // request ID shared by a request's spans
	Name   string `json:"name"`
	Shard  int    `json:"shard"` // -1 when the span is not a shard's
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children (each clipped to the
// parent's interval). Overlapping children, as from concurrent shards, are
// covered once.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// stageSpan is one pipeline stage of a program trace, in microseconds on
// the query's own timeline (zero is admission).
type stageSpan struct {
	Stage   string
	Shard   int
	StartUS float64
	DurUS   float64
}

// queryTrace is one query's program trace plus its work counters, in one
// shape whether it came from ?trace=1 over HTTP or from an in-process
// CollectTrace call.
type queryTrace struct {
	ElapsedUS   float64
	Spans       []stageSpan
	Plans       int // planner decisions
	PlansCached int // decisions served from the plan cache
	Pruned      int // shards skipped before dispatch

	Fanout     int
	Candidates int
	Results    int
	Postings   int
	Lists      int
}

// stageUS sums the durations of stage across all shards.
func (t *queryTrace) stageUS(stage string) float64 {
	sum := 0.0
	for _, s := range t.Spans {
		if s.Stage == stage {
			sum += s.DurUS
		}
	}
	return sum
}

// perShardUS sums, per shard, the durations of the named stages.
func (t *queryTrace) perShardUS(stages ...string) map[int]float64 {
	out := make(map[int]float64)
	for _, s := range t.Spans {
		if s.Shard < 0 {
			continue
		}
		for _, st := range stages {
			if s.Stage == st {
				out[s.Shard] += s.DurUS
			}
		}
	}
	return out
}

// dispatchUS is the engine's coordination time: the query's elapsed time
// minus admission, minus the slowest shard's plan+filter+verify, minus
// merge. It is what the scatter-gather costs beyond the critical-path work.
func dispatchUS(t *queryTrace) float64 {
	slowest := 0.0
	for _, us := range t.perShardUS("plan", "filter", "verify") {
		slowest = max(slowest, us)
	}
	return t.ElapsedUS - t.stageUS("admit") - slowest - t.stageUS("merge")
}

// shardSkew is max/mean of per-shard filter+verify time; ok is false when
// fewer than two shards ran or none did measurable work.
func shardSkew(t *queryTrace) (skew float64, ok bool) {
	per := t.perShardUS("filter", "verify")
	if len(per) < 2 {
		return 0, false
	}
	sum, hi := 0.0, 0.0
	for _, us := range per {
		sum += us
		hi = max(hi, us)
	}
	if sum <= 0 {
		return 0, false
	}
	return hi / (sum / float64(len(per))), true
}

// sliceRate splits [start, end) into n equal slices and returns the median,
// over the slices, of the queries completed per second in each: ends are the
// completion times of successful requests carrying perReq queries each.
// Completions outside the interval are ignored. The median keeps a burst of
// load from other tenants of a shared machine, covering a minority of the
// slices, out of the throughput.
func sliceRate(ends []int64, perReq int, start, end int64, n int) float64 {
	width := (end - start) / int64(n)
	if width <= 0 {
		return 0
	}
	counts := make([]float64, n)
	for _, e := range ends {
		if e < start {
			continue
		}
		if i := (e - start) / width; i < int64(n) {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] *= float64(perReq) / (float64(width) / 1e9)
	}
	return median(counts)
}

// lateness is how far past its due time an open-loop request was sent;
// never negative (a request sent early would have waited for its slot).
func lateness(due, sent int64) int64 {
	return max(0, sent-due)
}

// tally counts request outcomes across the phases of a run. Every request
// attempted ends in exactly one bucket: ok, non-2xx, transport error, or a
// 2xx whose answer differed from the expected one.
type tally struct {
	Attempted int64 `json:"attempted"`
	Non2xx    int64 `json:"non2xx"`
	Transport int64 `json:"transport_errors"`
	Wrong     int64 `json:"wrong_answers"`
}

func (t tally) failed() int64 { return t.Non2xx + t.Transport + t.Wrong }

// failRatio is failed/attempted; 0 when nothing was attempted.
func (t tally) failRatio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.Attempted)
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Non2xx += o.Non2xx
	t.Transport += o.Transport
	t.Wrong += o.Wrong
}

// record classifies one finished request: status 0 means the transport
// failed before a status arrived.
func (t *tally) record(status int, wrong bool) {
	t.Attempted++
	switch {
	case status == 0:
		t.Transport++
	case status < 200 || status > 299:
		t.Non2xx++
	case wrong:
		t.Wrong++
	}
}
