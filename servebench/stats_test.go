package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	seal "github.com/sealdb/seal"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestTailQLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 0.99}, // plenty beyond p99
		{1000, 0.99},   // exactly 10 beyond
		{999, 989.0 / 999},
		{500, 0.98},
		{20, 0.5},
		{15, 0.5}, // never below the median
		{0, 0.5},
	} {
		got := tailQ(c.n, 0.99)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQ(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n >= 20 {
			if beyond := c.n - int(math.Ceil(got*float64(c.n))); beyond < minTail {
				t.Errorf("tailQ(%d) = %v leaves %d samples beyond, want >= %d", c.n, got, beyond, minTail)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(500 - i) // 500..1, unsorted
	}
	s := summarize(xs, 0.99)
	if s.N != 500 || s.Median != 250 || s.TailQ != 0.98 || s.Tail != 490 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSelfTimesSubtractUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 200},
		{ID: 2, Parent: 1, Name: "handler", Start: 50, End: 150},
		// Children of the handler overlap each other and one overruns it.
		{ID: 3, Parent: 2, Name: "a", Start: 60, End: 80},
		{ID: 4, Parent: 2, Name: "b", Start: 70, End: 100},
		{ID: 5, Parent: 2, Name: "c", Start: 130, End: 170},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100,              // 200 - handler's 100
		2: 100 - 40 - 20,    // [60,100) and [130,150)
		3: 20, 4: 30, 5: 40, // leaves keep their durations
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	if got := covered(0, 100, [][2]int64{{10, 20}, {30, 40}, {12, 18}, {-5, 2}}); got != 22 {
		t.Errorf("covered = %d, want 22", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered(nil) = %d", got)
	}
}

// twoShardTrace: admit 10, shard 0 plan+filter+verify 35, shard 1
// filter+verify 45, merge 3, elapsed 100.
func twoShardTrace() *queryTrace {
	return &queryTrace{
		ElapsedUS: 100,
		Spans: []stageSpan{
			{Stage: "admit", Shard: -1, DurUS: 10},
			{Stage: "plan", Shard: 0, DurUS: 5},
			{Stage: "filter", Shard: 0, DurUS: 20},
			{Stage: "verify", Shard: 0, DurUS: 10},
			{Stage: "filter", Shard: 1, DurUS: 40},
			{Stage: "verify", Shard: 1, DurUS: 5},
			{Stage: "merge", Shard: -1, DurUS: 3},
		},
	}
}

func TestDispatchUS(t *testing.T) {
	if got := dispatchUS(twoShardTrace()); got != 100-10-45-3 {
		t.Errorf("dispatchUS = %v, want 42", got)
	}
}

func TestShardSkew(t *testing.T) {
	// filter+verify: shard 0 = 30, shard 1 = 45; mean 37.5.
	got, ok := shardSkew(twoShardTrace())
	if !ok || math.Abs(got-45/37.5) > 1e-12 {
		t.Errorf("shardSkew = %v, %v; want %v", got, ok, 45/37.5)
	}
	one := &queryTrace{Spans: []stageSpan{{Stage: "filter", Shard: 0, DurUS: 5}}}
	if _, ok := shardSkew(one); ok {
		t.Error("a single shard has no skew")
	}
}

func TestSliceRateIsMedianOfSlices(t *testing.T) {
	// 4 slices of 250 ms over [0, 1 s): 2, 3, 10 and 3 completions of
	// 2-query requests, plus completions outside the interval.
	s := int64(1e9) / 4
	ends := []int64{-5, 10, 20, s, s + 1, s + 2}
	for i := 0; i < 10; i++ {
		ends = append(ends, 2*s+int64(i))
	}
	ends = append(ends, 3*s, 3*s+1, 3*s+2, 4*s, 5*s)
	// Per-slice rates: 16, 24, 80, 24 queries/s; nearest-rank median 24.
	if got := sliceRate(ends, 2, 0, 4*s, 4); got != 24 {
		t.Errorf("sliceRate = %v, want 24", got)
	}
	if got := sliceRate(ends, 2, 0, 0, 4); got != 0 {
		t.Errorf("empty interval = %v", got)
	}
}

func TestMergePhasesAddsWindows(t *testing.T) {
	a := &phaseOut{Name: "closed", Clients: 2, WallS: 0.5, Requests: 3, Queries: 3,
		Tally: tally{Attempted: 3, Non2xx: 1}, start: 100, deadline: 200,
		okEnds: []int64{150, 160}, lat: []float64{1, 2, 3}}
	b := &phaseOut{Name: "closed", Clients: 2, WallS: 0.25, Requests: 2, Queries: 2,
		Tally: tally{Attempted: 2, Wrong: 1}, start: 500, deadline: 600,
		okEnds: []int64{550}, lat: []float64{4, 5}}
	m := mergePhases([]*phaseOut{a, b})
	if m.Name != "closed" || m.Clients != 2 || m.WallS != 0.75 || m.Requests != 5 || m.Queries != 5 {
		t.Errorf("merged header %+v", m)
	}
	if m.Tally != (tally{Attempted: 5, Non2xx: 1, Wrong: 1}) {
		t.Errorf("merged tally %+v", m.Tally)
	}
	if m.start != 100 || m.deadline != 600 || len(m.okEnds) != 3 || len(m.lat) != 5 {
		t.Errorf("merged span [%d, %d), %d ends, %d latencies", m.start, m.deadline, len(m.okEnds), len(m.lat))
	}
}

func TestRoundsSplitTheRun(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want int
	}{{time.Second, 1}, {2 * time.Second, 1}, {5 * time.Second, 2}, {20 * time.Second, 10}} {
		if got := rounds(c.d); got != c.want {
			t.Errorf("rounds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestLateness(t *testing.T) {
	if got := lateness(100, 150); got != 50 {
		t.Errorf("late send: %d", got)
	}
	if got := lateness(100, 90); got != 0 {
		t.Errorf("early send: %d", got)
	}
}

func TestTallyFailRatio(t *testing.T) {
	var a tally
	a.record(200, false) // ok
	a.record(206, true)  // 2xx with a wrong answer
	a.record(503, false) // non-2xx, whatever its body
	a.record(0, false)   // transport error
	if a.Attempted != 4 || a.Wrong != 1 || a.Non2xx != 1 || a.Transport != 1 || a.failed() != 3 {
		t.Errorf("tally = %+v", a)
	}
	if a.failRatio() != 0.75 {
		t.Errorf("failRatio = %v", a.failRatio())
	}
	var total tally
	total.Attempted, total.Wrong = 128, 0 // e.g. the scan cross-check
	total.add(a)
	if total.Attempted != 132 || total.failed() != 3 {
		t.Errorf("added tally = %+v", total)
	}
	if (tally{}).failRatio() != 0 {
		t.Error("empty tally must have ratio 0")
	}
}

func TestHistQuantile(t *testing.T) {
	buckets := []float64{0, 1, 2, 4, math.Inf(1)}
	if got := histQuantile([]uint64{50, 40, 9, 1}, buckets, 0.99); got != 4 {
		t.Errorf("p99 = %v, want 4", got)
	}
	if got := histQuantile([]uint64{50, 40, 9, 1}, buckets, 0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	// The unbounded last bucket reports its lower bound.
	if got := histQuantile([]uint64{0, 0, 0, 5}, buckets, 0.99); got != 4 {
		t.Errorf("overflow bucket = %v, want 4", got)
	}
	if got := histQuantile([]uint64{0, 0, 0, 0}, buckets, 0.99); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestMatchComparisonIsBitExact(t *testing.T) {
	want := []seal.Match{{ID: 1, SimR: 0.3, SimT: 0.5}, {ID: 2, SimR: 0.4, SimT: 0.6}}
	if !matchesEqual([]respMatch{{ID: 1, SimR: 0.3, SimT: 0.5}, {ID: 2, SimR: 0.4, SimT: 0.6}}, want) {
		t.Error("identical answers must match")
	}
	if matchesEqual([]respMatch{{ID: 1, SimR: math.Nextafter(0.3, 1), SimT: 0.5}, {ID: 2, SimR: 0.4, SimT: 0.6}}, want) {
		t.Error("a similarity one ulp off must not match")
	}
	if matchesEqual([]respMatch{{ID: 2, SimR: 0.4, SimT: 0.6}, {ID: 1, SimR: 0.3, SimT: 0.5}}, want) {
		t.Error("HTTP answers must keep the in-process order")
	}
	// Against the scan oracle a threshold answer compares as a set.
	swapped := []seal.Match{want[1], want[0]}
	if !sameMatches(swapped, want, false) || sameMatches(swapped, want, true) {
		t.Error("sameMatches ordering rule")
	}
}

// The result line must carry exactly the metrics BENCHMARK.json lists.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end %v, benchmark prints %v", got, endToEnd)
	}
	if got := names(b.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer %v, benchmark prints %v", got, perLayer)
	}
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
}
