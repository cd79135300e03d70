package main

// Workloads: what each one indexes, which queries it sends, how the index
// comes up, and the expected answers every HTTP response is checked against.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	seal "github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/server"
)

const (
	// objectCount is the size of every workload's Twitter-like dataset.
	objectCount = 100_000
	// poolSize is the number of distinct queries a workload cycles through;
	// larger than the planner's 512-slot plan cache.
	poolSize = 4096
	// warmupQueries is what server.Warmup runs before the server is ready;
	// it also matures the adaptive planner (64 observations).
	warmupQueries = 512
	// scanSample is how many pooled queries are cross-checked against an
	// exhaustive MethodScan index over the same objects.
	scanSample = 128
	// corpusSeed seeds the dataset. Like the paper, every run searches one
	// corpus; the run's seed varies the query pool. Across corpus seeds the
	// cost of a large-region query differs by up to 1.7× (density of the largest
	// city), which no run length can average away.
	corpusSeed = 1
)

// workload is one traffic mix over one index configuration.
type workload struct {
	name       string
	shards     int
	adaptive   bool // seal.WithAdaptivePlanning
	compressed bool // seal.CompressionQuantized postings
	mapped     bool // written to segments, closed, reopened with seal.Open
	// batch is the number of queries per POST /v1/query/batch body; 0 sends
	// one query per POST /v1/query.
	batch int
	// openRate is the open-loop offered load in queries per second, about
	// a quarter of the closed-loop qps measured on a 2-CPU machine. At half
	// of qps a GC mark phase (90-180 ms on 2 Ps) or a slower stretch of a
	// shared machine tips the server past saturation, and the open-loop
	// tail then varies 2-5x from run to run.
	openRate float64
}

var workloads = []workload{
	{name: "selective", shards: 8, adaptive: true, openRate: 3600},
	{name: "batch-mapped", shards: 4, compressed: true, mapped: true, batch: 32, openRate: 3200},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// wireQuery is the client's JSON form of one query for the server's
// /v1/query and /v1/query/batch endpoints.
type wireQuery struct {
	Rect   [4]float64 `json:"rect"`
	Tokens []string   `json:"tokens"`
	TauR   float64    `json:"tau_r,omitempty"`
	TauT   float64    `json:"tau_t,omitempty"`
	K      int        `json:"k,omitempty"`
	Alpha  float64    `json:"alpha,omitempty"`
}

func toWire(r seal.Request) wireQuery {
	return wireQuery{
		Rect:   [4]float64{r.Region.MinX, r.Region.MinY, r.Region.MaxX, r.Region.MaxY},
		Tokens: r.Tokens, TauR: r.TauR, TauT: r.TauT, K: r.K, Alpha: r.Alpha,
	}
}

func specRequest(s gen.QuerySpec) seal.Request {
	return seal.Request{
		Region: seal.Rect{MinX: s.Region.MinX, MinY: s.Region.MinY, MaxX: s.Region.MaxX, MaxY: s.Region.MaxY},
		Tokens: s.Terms,
	}
}

// inputs are a workload's generated objects and query pool.
type inputs struct {
	objects []seal.Object
	pool    []seal.Request
	// bodies are the pre-encoded HTTP bodies: one per query, or one per
	// batch of w.batch consecutive queries.
	bodies [][]byte
	genDur time.Duration
}

// makeObjects generates the dataset from corpusSeed; every call returns the
// same objects.
func makeObjects() ([]seal.Object, error) {
	ds, err := gen.Twitter(gen.TwitterConfig{N: objectCount, Seed: corpusSeed})
	if err != nil {
		return nil, err
	}
	return server.SnapshotObjects(ds), nil
}

// makeInputs generates the dataset from corpusSeed and the query pool from
// seed.
func makeInputs(w workload, seed int64) (*inputs, error) {
	start := time.Now()
	ds, err := gen.Twitter(gen.TwitterConfig{N: objectCount, Seed: corpusSeed})
	if err != nil {
		return nil, err
	}
	in := &inputs{objects: server.SnapshotObjects(ds)}
	switch w.name {
	case "selective":
		specs, err := gen.Queries(ds, gen.SmallRegionConfig(poolSize, seed+1))
		if err != nil {
			return nil, err
		}
		for _, s := range specs {
			r := specRequest(s)
			r.TauR, r.TauT = 0.4, 0.4
			in.pool = append(in.pool, r)
		}
	case "batch-mapped":
		small, err := gen.Queries(ds, gen.SmallRegionConfig(poolSize/2, seed+1))
		if err != nil {
			return nil, err
		}
		large, err := gen.Queries(ds, gen.LargeRegionConfig(poolSize/2, seed+2))
		if err != nil {
			return nil, err
		}
		for i := range small {
			s, l := specRequest(small[i]), specRequest(large[i])
			s.TauR, s.TauT = 0.4, 0.4
			if i%4 == 3 {
				l.K, l.Alpha = 10, 0.5
			} else {
				l.TauR, l.TauT = 0.1, 0.1
			}
			in.pool = append(in.pool, s, l)
		}
	default:
		return nil, fmt.Errorf("no query pool for workload %q", w.name)
	}
	if w.batch == 0 {
		for _, r := range in.pool {
			b, err := json.Marshal(toWire(r))
			if err != nil {
				return nil, err
			}
			in.bodies = append(in.bodies, b)
		}
	} else {
		for i := 0; i+w.batch <= len(in.pool); i += w.batch {
			qs := make([]wireQuery, w.batch)
			for j := range qs {
				qs[j] = toWire(in.pool[i+j])
			}
			b, err := json.Marshal(map[string]any{"queries": qs})
			if err != nil {
				return nil, err
			}
			in.bodies = append(in.bodies, b)
		}
	}
	in.genDur = time.Since(start)
	return in, nil
}

// queriesPerRequest is how many pooled queries one HTTP request carries.
func (w workload) queriesPerRequest() int { return max(1, w.batch) }

// buildOptions is the index configuration the workload serves.
func (w workload) buildOptions(segDir string) []seal.Option {
	opts := []seal.Option{seal.WithShards(w.shards)}
	if w.adaptive {
		opts = append(opts, seal.WithAdaptivePlanning())
	}
	if w.compressed {
		opts = append(opts, seal.WithCompression(seal.CompressionQuantized))
	}
	if segDir != "" {
		opts = append(opts, seal.WithSegmentDir(segDir))
	}
	return opts
}

// served is an index brought up and wrapped in a ready server.
type served struct {
	ix  *seal.Index
	srv *server.Server

	setup     time.Duration // build start to server ready
	build     time.Duration // seal.Build wall time (includes the save when mapped)
	open      time.Duration // seal.Open wall time (mapped only)
	diskBytes int64         // segment directory size (mapped only)
}

func serverConfig() server.Config {
	cfg := server.DefaultConfig
	cfg.Addr = "127.0.0.1:0"
	cfg.Warmup = warmupQueries
	return cfg
}

// setUp builds (and for mapped workloads saves, closes and reopens) the
// index, wraps it in a server and warms it. The timed span is setup_s.
func setUp(w workload, objects []seal.Object, segDir string) (*served, error) {
	if w.mapped {
		if err := os.RemoveAll(segDir); err != nil {
			return nil, fmt.Errorf("clearing %s: %w", segDir, err)
		}
	} else {
		segDir = ""
	}
	start := time.Now()
	ix, err := seal.Build(objects, w.buildOptions(segDir)...)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	s := &served{build: time.Since(start)}
	if w.mapped {
		if err := ix.Close(); err != nil {
			return nil, fmt.Errorf("close built index: %w", err)
		}
		t := time.Now()
		if ix, err = seal.Open(segDir); err != nil {
			return nil, fmt.Errorf("open segments: %w", err)
		}
		s.open = time.Since(t)
		if !ix.Stats().Mapped {
			ix.Close()
			return nil, fmt.Errorf("reopened index is not mapped")
		}
	}
	srv := server.New(ix, serverConfig(), nil)
	if _, err := srv.Warmup(warmupQueries); err != nil {
		ix.Close()
		return nil, fmt.Errorf("warmup: %w", err)
	}
	srv.SetReady(true)
	s.setup = time.Since(start)
	s.ix, s.srv = ix, srv
	if w.mapped {
		if s.diskBytes, err = dirSize(segDir); err != nil {
			ix.Close()
			return nil, err
		}
	}
	return s, nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("sizing %s: %w", dir, err)
	}
	return total, nil
}

// expectAnswers runs every pooled query in-process, untraced, one at a time.
// The answers are what each HTTP response must reproduce; the per-query
// wall times are seal.query_us.
func expectAnswers(ix *seal.Index, pool []seal.Request) ([][]seal.Match, []float64, error) {
	ctx := context.Background()
	want := make([][]seal.Match, len(pool))
	us := make([]float64, len(pool))
	for i, r := range pool {
		t := time.Now()
		res, err := ix.Query(ctx, r)
		us[i] = float64(time.Since(t).Nanoseconds()) / 1e3
		if err != nil {
			return nil, nil, fmt.Errorf("in-process query %d: %w", i, err)
		}
		want[i] = res.Matches
	}
	return want, us, nil
}

// scanCheck cross-checks a deterministic sample of pooled queries against
// an exhaustive MethodScan index over the same objects: the served index
// must return exactly what verifying every object returns. It reports the
// number of sampled queries checked and how many disagreed.
func scanCheck(objects []seal.Object, pool []seal.Request, want [][]seal.Match, seed int64) (checked, mismatched int, err error) {
	scan, err := seal.Build(objects, seal.WithMethod(seal.MethodScan))
	if err != nil {
		return 0, 0, fmt.Errorf("scan index: %w", err)
	}
	defer scan.Close()
	ctx := context.Background()
	stride := len(pool) / scanSample
	off := int(uint64(seed) % uint64(stride))
	for i := off; i < len(pool) && checked < scanSample; i += stride {
		res, err := scan.Query(ctx, pool[i])
		if err != nil {
			return checked, mismatched, fmt.Errorf("scan query %d: %w", i, err)
		}
		checked++
		if !sameMatches(res.Matches, want[i], pool[i].Ranked()) {
			mismatched++
		}
	}
	return checked, mismatched, nil
}

// sameMatches reports whether got equals want: same IDs with bit-identical
// similarities and scores, in the same order when ordered is set. A
// threshold answer from another index may list the same set in another
// order, so it compares unordered (sorted by ID).
func sameMatches(got, want []seal.Match, ordered bool) bool {
	if len(got) != len(want) {
		return false
	}
	if !ordered {
		got, want = byID(got), byID(want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.SimR != w.SimR || g.SimT != w.SimT || g.Score != w.Score {
			return false
		}
	}
	return true
}

func byID(ms []seal.Match) []seal.Match {
	out := append([]seal.Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
