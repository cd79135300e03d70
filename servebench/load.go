package main

// The load generator: the server on loopback, the HTTP client, the three
// load shapes (unloaded, closed loop, open loop) and the per-response
// answer check.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	seal "github.com/sealdb/seal"
)

// Request headers carrying the benchmark's request ID and the client span
// that caused the request, so the handler middleware can parent its span.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// target is the server under test, listening on loopback, and the client
// that drives it.
type target struct {
	url    string
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *http.Client
}

// startTarget serves h on an ephemeral loopback port; the client opens at
// most conns connections.
func startTarget(h http.Handler, conns int) (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	t := &target{
		url:    "http://" + ln.Addr().String(),
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		tr: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	t.client = &http.Client{Transport: t.tr, Timeout: 30 * time.Second}
	go func() { t.served <- t.hs.Serve(ln) }()
	return t, nil
}

// stop drains the server and waits for its accept loop to return.
func (t *target) stop() error {
	t.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.hs.Shutdown(ctx)
	if serr := <-t.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// Response shapes the client decodes: only the fields it checks or uses.
type respMatch struct {
	ID    int     `json:"id"`
	SimR  float64 `json:"sim_r"`
	SimT  float64 `json:"sim_t"`
	Score float64 `json:"score"`
}

type respStats struct {
	Candidates int `json:"candidates"`
	Results    int `json:"results"`
	Lists      int `json:"lists_probed"`
	Postings   int `json:"postings_scanned"`
	Fanout     int `json:"shard_fanout"`
}

type respSpan struct {
	Stage      string  `json:"stage"`
	Shard      int     `json:"shard"`
	StartUS    float64 `json:"start_us"`
	DurationUS float64 `json:"duration_us"`
}

type respTrace struct {
	ElapsedUS float64    `json:"elapsed_us"`
	Spans     []respSpan `json:"spans"`
	Plans     []struct {
		Cached bool `json:"cached"`
	} `json:"plans"`
	Pruned []json.RawMessage `json:"pruned"`
}

type respResults struct {
	Matches []respMatch `json:"matches"`
	Stats   *respStats  `json:"stats"`
	Trace   *respTrace  `json:"trace"`
}

type respBatch struct {
	Results []struct {
		Results *respResults `json:"results"`
		Error   string       `json:"error"`
	} `json:"results"`
}

// matchesEqual compares a response's matches with the expected answer in
// order, every float bit for bit.
func matchesEqual(got []respMatch, want []seal.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		w := want[i]
		if g.ID != w.ID || g.SimR != w.SimR || g.SimT != w.SimT || g.Score != w.Score {
			return false
		}
	}
	return true
}

// toQueryTrace joins a wire trace with the response's work counters.
func toQueryTrace(t *respTrace, st *respStats) queryTrace {
	var q queryTrace
	if t != nil {
		q.ElapsedUS = t.ElapsedUS
		q.Spans = make([]stageSpan, len(t.Spans))
		for i, s := range t.Spans {
			q.Spans[i] = stageSpan{Stage: s.Stage, Shard: s.Shard, StartUS: s.StartUS, DurUS: s.DurationUS}
		}
		q.Plans = len(t.Plans)
		for _, p := range t.Plans {
			if p.Cached {
				q.PlansCached++
			}
		}
		q.Pruned = len(t.Pruned)
	}
	if st != nil {
		q.Fanout, q.Candidates, q.Results = st.Fanout, st.Candidates, st.Results
		q.Postings, q.Lists = st.Postings, st.Lists
	}
	return q
}

// loader sends the workload's requests and checks every answer.
type loader struct {
	w      workload
	t      *target
	bodies [][]byte
	want   [][]seal.Match // expected answer per pooled query
	rec    *recorder      // nil when the run is untraced
	reqSeq atomic.Int64
}

// exchange is one finished request.
type exchange struct {
	req       int64
	status    int // 0: transport error
	wrong     bool
	bytes     int
	queries   int
	sent, end int64 // recorder timeline, ns; end is when the body was read
	traces    []queryTrace
}

// send issues request number k of a phase and checks its answer. With
// traced it asks for ?trace=1 (single-query endpoint) and keeps the
// program's traces and work counters.
func (l *loader) send(k int64, traced bool) exchange {
	qpr := l.w.queriesPerRequest()
	bi := int(k % int64(len(l.bodies)))
	ex := exchange{req: l.reqSeq.Add(1), queries: qpr}
	path := "/v1/query"
	if l.w.batch > 0 {
		path = "/v1/query/batch"
	} else if traced {
		path += "?trace=1"
	}
	hreq, err := http.NewRequest(http.MethodPost, l.t.url+path, bytes.NewReader(l.bodies[bi]))
	if err != nil {
		return ex
	}
	hreq.Header.Set("Content-Type", "application/json")
	var clientSpan int64
	if l.rec != nil && traced {
		clientSpan = l.rec.newID()
		hreq.Header.Set(hdrReq, strconv.FormatInt(ex.req, 10))
		hreq.Header.Set(hdrSpan, strconv.FormatInt(clientSpan, 10))
	}
	ex.sent = nowNS()
	resp, err := l.t.client.Do(hreq)
	if err != nil {
		ex.end = nowNS()
		return ex
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ex.end = nowNS()
	if err != nil {
		return ex
	}
	ex.status, ex.bytes = resp.StatusCode, len(body)
	if clientSpan != 0 {
		l.rec.add(span{ID: clientSpan, Req: ex.req, Name: "client.request", Shard: -1, Start: ex.sent, End: ex.end})
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return ex
	}
	if l.w.batch == 0 {
		var r respResults
		if json.Unmarshal(body, &r) != nil || !matchesEqual(r.Matches, l.want[bi]) {
			ex.wrong = true
			return ex
		}
		if traced {
			ex.traces = []queryTrace{toQueryTrace(r.Trace, r.Stats)}
		}
		return ex
	}
	var r respBatch
	if json.Unmarshal(body, &r) != nil || len(r.Results) != qpr {
		ex.wrong = true
		return ex
	}
	for j, br := range r.Results {
		if br.Error != "" || br.Results == nil || !matchesEqual(br.Results.Matches, l.want[bi*qpr+j]) {
			ex.wrong = true
			return ex
		}
		if traced {
			ex.traces = append(ex.traces, toQueryTrace(nil, br.Results.Stats))
		}
	}
	return ex
}

// phase is one load shape held for a fixed time.
type phase struct {
	name    string
	clients int
	// rate is the open-loop offered load in queries per second; 0 runs a
	// closed loop, each client sending its next request when the previous
	// one completes.
	rate   float64
	dur    time.Duration
	traced bool
	// gc forces a collection before the phase starts, so the phase does
	// not pay for garbage left by the one before it.
	gc bool
}

// phaseOut is what one phase measured.
type phaseOut struct {
	Name     string  `json:"name"`
	Clients  int     `json:"clients"`
	RateQPS  float64 `json:"rate_qps,omitempty"`
	Traced   bool    `json:"traced"`
	WallS    float64 `json:"wall_s"`
	Requests int64   `json:"requests"`
	// Queries counts the queries of requests that succeeded.
	Queries int64   `json:"queries"`
	Tally   tally   `json:"tally"`
	Runtime rtDelta `json:"runtime"`

	start, deadline int64     // recorder timeline, ns
	okEnds          []int64   // completion times of successful requests
	lat             []float64 // ms; from the due time in an open loop
	late            []float64 // ms; open loop only
	bytes           []float64
	exs             []exchange // traced phases only
}

// run drives one phase to completion: every request issued before the
// phase's end is waited for.
func (l *loader) run(p phase) *phaseOut {
	if p.gc {
		runtime.GC()
	}
	if l.rec != nil {
		l.rec.on.Store(p.traced)
	}
	before := readRuntime()
	start := nowNS()
	deadline := start + p.dur.Nanoseconds()
	var interval int64
	if p.rate > 0 {
		interval = int64(float64(time.Second) * float64(l.w.queriesPerRequest()) / p.rate)
	}
	var next atomic.Int64
	outs := make([]*phaseOut, p.clients)
	var wg sync.WaitGroup
	for c := range outs {
		out := &phaseOut{}
		outs[c] = out
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				due := nowNS()
				if interval > 0 {
					due = start + k*interval
					if due >= deadline {
						return
					}
					if d := due - nowNS(); d > 0 {
						time.Sleep(time.Duration(d))
					}
				} else if due >= deadline {
					return
				}
				ex := l.send(k, p.traced)
				out.Tally.record(ex.status, ex.wrong)
				if ex.status >= 200 && ex.status <= 299 && !ex.wrong {
					out.Queries += int64(ex.queries)
					out.okEnds = append(out.okEnds, ex.end)
				}
				out.lat = append(out.lat, float64(ex.end-due)/1e6)
				if interval > 0 {
					out.late = append(out.late, float64(lateness(due, ex.sent))/1e6)
				}
				out.bytes = append(out.bytes, float64(ex.bytes))
				if p.traced {
					out.exs = append(out.exs, ex)
				}
			}
		}()
	}
	wg.Wait()
	res := &phaseOut{
		Name: p.name, Clients: p.clients, RateQPS: p.rate, Traced: p.traced,
		WallS: float64(nowNS()-start) / 1e9,
		start: start, deadline: deadline,
		Runtime: runtimeDelta(before, readRuntime()),
	}
	if l.rec != nil {
		l.rec.on.Store(false)
	}
	for _, o := range outs {
		res.Tally.add(o.Tally)
		res.Queries += o.Queries
		res.okEnds = append(res.okEnds, o.okEnds...)
		res.lat = append(res.lat, o.lat...)
		res.late = append(res.late, o.late...)
		res.bytes = append(res.bytes, o.bytes...)
		res.exs = append(res.exs, o.exs...)
	}
	res.Requests = res.Tally.Attempted
	return res
}

// mergePhases joins the windows of one load shape, taken in separate
// rounds, into one phase: samples, tallies and runtime deltas add up, and
// the phase spans the first window's start to the last one's deadline.
func mergePhases(ps []*phaseOut) *phaseOut {
	m := &phaseOut{Name: ps[0].Name, Clients: ps[0].Clients, RateQPS: ps[0].RateQPS, Traced: ps[0].Traced,
		start: ps[0].start, deadline: ps[len(ps)-1].deadline}
	for _, p := range ps {
		m.WallS += p.WallS
		m.Requests += p.Requests
		m.Queries += p.Queries
		m.Tally.add(p.Tally)
		m.Runtime.merge(p.Runtime)
		m.okEnds = append(m.okEnds, p.okEnds...)
		m.lat = append(m.lat, p.lat...)
		m.late = append(m.late, p.late...)
		m.bytes = append(m.bytes, p.bytes...)
		m.exs = append(m.exs, p.exs...)
	}
	return m
}
