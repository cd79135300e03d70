package main

// The benchmark's span recorder. Spans are taken around the calls the
// benchmark makes into the program — the client round trip, a middleware
// around Server.Handler(), in-process Index.Query/QueryBatch — and the
// program's own ?trace=1 / CollectTrace stage spans are attached beneath
// them by request ID. Everything stays in memory until the traced run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors the run's monotonic timeline.
var epoch = time.Now()

// nowNS is the current time on the run's timeline.
func nowNS() int64 { return time.Since(epoch).Nanoseconds() }

type recorder struct {
	on     atomic.Bool // the middleware records only while a traced phase runs
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func (r *recorder) newID() int64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// middleware times the server's handler for requests that carry the
// benchmark's request headers, parenting the span to the client's.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		if !r.on.Load() {
			next.ServeHTTP(w, q)
			return
		}
		req, _ := strconv.ParseInt(q.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(q.Header.Get(hdrSpan), 10, 64)
		start := nowNS()
		next.ServeHTTP(w, q)
		r.add(span{ID: r.newID(), Parent: parent, Req: req, Name: "server.handler", Shard: -1, Start: start, End: nowNS()})
	})
}

// attach records a program trace beneath parent: one "seal.query" span of
// the trace's elapsed time starting at start, and one span per stage at its
// offset on the trace's timeline.
func (r *recorder) attach(parent, req, start int64, t *queryTrace) {
	q := span{ID: r.newID(), Parent: parent, Req: req, Name: "seal.query", Shard: -1,
		Start: start, End: start + int64(t.ElapsedUS*1e3)}
	r.add(q)
	for _, s := range t.Spans {
		b := q.Start + int64(s.StartUS*1e3)
		r.add(span{ID: r.newID(), Parent: q.ID, Req: req, Name: "seal." + s.Stage, Shard: s.Shard,
			Start: b, End: b + int64(s.DurUS*1e3)})
	}
}

// maxWrittenSpans caps the span file; analysis always uses every span.
const maxWrittenSpans = 200_000

// write stores spans as JSON lines, the first maxWrittenSpans of them.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range spans {
		if i == maxWrittenSpans {
			break
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
