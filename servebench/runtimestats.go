package main

// Process-wide runtime state read through runtime/metrics before and after
// each phase. The benchmark's clients share the process with the server, so
// these numbers cover both.

import (
	"math"
	"runtime/metrics"
)

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
	"/gc/heap/live:bytes",
}

// rtSample is one reading of the runtime counters.
type rtSample struct {
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
	allocBytes uint64
	liveBytes  uint64
	sched      *metrics.Float64Histogram
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r rtSample
	for _, s := range ss {
		switch s.Name {
		case "/gc/cycles/total:gc-cycles":
			r.gcCycles = s.Value.Uint64()
		case "/cpu/classes/gc/total:cpu-seconds":
			r.gcCPU = s.Value.Float64()
		case "/cpu/classes/total:cpu-seconds":
			r.totalCPU = s.Value.Float64()
		case "/gc/heap/allocs:bytes":
			r.allocBytes = s.Value.Uint64()
		case "/gc/heap/live:bytes":
			r.liveBytes = s.Value.Uint64()
		case "/sched/latencies:seconds":
			h := s.Value.Float64Histogram()
			// The returned histogram is reused by later reads; copy it.
			r.sched = &metrics.Float64Histogram{
				Counts:  append([]uint64(nil), h.Counts...),
				Buckets: append([]float64(nil), h.Buckets...),
			}
		}
	}
	return r
}

// rtDelta is the runtime activity between two samples.
type rtDelta struct {
	GCCycles    uint64  `json:"gc_cycles"`
	GCCPUSec    float64 `json:"gc_cpu_s"`
	CPUSec      float64 `json:"cpu_s"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	SchedP99US  float64 `json:"sched_p99_us"`
	SchedEvents uint64  `json:"sched_events"`

	schedCounts  []uint64
	schedBuckets []float64
}

func runtimeDelta(a, b rtSample) rtDelta {
	d := rtDelta{
		GCCycles:   b.gcCycles - a.gcCycles,
		GCCPUSec:   b.gcCPU - a.gcCPU,
		CPUSec:     b.totalCPU - a.totalCPU,
		AllocBytes: b.allocBytes - a.allocBytes,
	}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		d.schedBuckets = b.sched.Buckets
		d.schedCounts = make([]uint64, len(b.sched.Counts))
		for i := range d.schedCounts {
			d.schedCounts[i] = b.sched.Counts[i] - a.sched.Counts[i]
			d.SchedEvents += d.schedCounts[i]
		}
		d.SchedP99US = histQuantile(d.schedCounts, d.schedBuckets, 0.99) * 1e6
	}
	return d
}

// merge folds another phase's activity into d.
func (d *rtDelta) merge(o rtDelta) {
	d.GCCycles += o.GCCycles
	d.GCCPUSec += o.GCCPUSec
	d.CPUSec += o.CPUSec
	d.AllocBytes += o.AllocBytes
	if len(d.schedCounts) == 0 {
		d.schedCounts = append([]uint64(nil), o.schedCounts...)
		d.schedBuckets = o.schedBuckets
	} else if len(d.schedCounts) == len(o.schedCounts) {
		for i := range d.schedCounts {
			d.schedCounts[i] += o.schedCounts[i]
		}
	}
	d.SchedEvents += o.SchedEvents
	d.SchedP99US = histQuantile(d.schedCounts, d.schedBuckets, 0.99) * 1e6
}

// gcCPUFrac is the share of the process's CPU time spent in the collector.
func (d rtDelta) gcCPUFrac() float64 {
	if d.CPUSec <= 0 {
		return 0
	}
	return d.GCCPUSec / d.CPUSec
}

// histQuantile returns the upper bound of the bucket holding the q-quantile
// of a runtime/metrics histogram (len(buckets) == len(counts)+1). An
// unbounded last bucket reports its lower bound.
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if hi := buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return buckets[i]
		}
	}
	return buckets[len(buckets)-1]
}
