package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"dynlb"
	"dynlb/internal/service"
)

const (
	// mixClients closed-loop clients drive the service: each sends its
	// next document only after the previous one's last row arrived.
	mixClients = 2
	// mixMinSamples is the least number of both fresh and cached
	// documents a run collects, so p90 has 10 samples beyond it.
	mixMinSamples = 100
	// mixMaxTime caps a closed loop that cannot reach mixMinSamples, so a
	// run ends well within 3 minutes even when traced (two loops).
	mixMaxTime = 100 * time.Second
	// recentFresh is how many of a client's latest fresh documents a
	// resubmission chooses from; far below the cache's 128 entries, so a
	// resubmitted document is never evicted before it returns.
	recentFresh = 8
	// verifyFresh fresh documents, the first ones to complete, are
	// simulated again locally after the timed region and compared row for
	// row with what the service streamed.
	verifyFresh = 16
	// docTimeout bounds one document from submit to its last row.
	docTimeout = 20 * time.Second
)

// mixStrategies are the strategies a document draws two of.
var mixStrategies = []string{"MIN-IO", "MIN-IO-SUOPT", "pmu-cpu+RANDOM", "pmu-cpu+LUM", "OPT-IO-CPU"}

// docStream generates one client's document stream from the run seed:
// fresh and resubmitted documents alternate, starting with a fresh one.
type docStream struct {
	rng    *rand.Rand
	n      int
	recent [][]byte // latest fresh documents, oldest first
}

func newDocStream(seed int64, client int) *docStream {
	return &docStream{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)))}
}

// next returns the next document and whether it is fresh.
func (g *docStream) next() ([]byte, bool) {
	g.n++
	if g.n%2 == 0 {
		return g.recent[g.rng.Intn(len(g.recent))], false
	}
	doc := freshDoc(g.rng)
	g.recent = append(g.recent, doc)
	if len(g.recent) > recentFresh {
		g.recent = g.recent[1:]
	}
	return doc, true
}

// freshDoc builds a SweepSpec document of 4 jobs — two strategies at two
// system sizes of 10–20 PEs, 1.5 simulated seconds each — with a new
// simulation seed, so its cache key is new.
func freshDoc(rng *rand.Rand) []byte {
	i := rng.Intn(len(mixStrategies))
	j := (i + 1 + rng.Intn(len(mixStrategies)-1)) % len(mixStrategies)
	small := 10 + rng.Intn(5)
	large := 15 + rng.Intn(6)
	qps := 0.2 + 0.01*float64(rng.Intn(16))
	seed := rng.Int63()
	doc := map[string]any{
		"sweep": map[string]any{
			"name": "mix",
			"base": map[string]any{
				"JoinQPSPerPE": qps,
				"Warmup":       int64(dynlb.Seconds(0.5)),
				"MeasureTime":  int64(dynlb.Seconds(1)),
				"Seed":         seed,
			},
			"strategies": []string{mixStrategies[i], mixStrategies[j]},
			"axes":       []map[string]any{{"name": "#PE", "field": "NPE", "values": []int{small, large}}},
		},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		panic(err) // maps of plain values always encode
	}
	return data
}

// docJobs is the number of simulation jobs in a generated document.
const docJobs = 4

// mixServer is the in-process dynlbd: scheduler, HTTP server on a
// loopback listener, and the clients' transport.
type mixServer struct {
	sched *service.Scheduler
	srv   *httptest.Server
	tp    *http.Transport
	hc    *http.Client
}

func startMixServer() (*mixServer, error) {
	// 2 pool workers; queue 16 and cache 128 are dynlbd's defaults.
	sched := service.New(2, 16, 128)
	m := &mixServer{sched: sched, srv: httptest.NewServer(service.NewServer(sched))}
	m.tp = &http.Transport{MaxConnsPerHost: mixClients, MaxIdleConnsPerHost: mixClients}
	m.hc = &http.Client{Transport: m.tp}
	resp, err := m.hc.Get(m.srv.URL + "/healthz")
	if err != nil {
		m.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		m.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	// Warm-up: one fresh document end to end, the same at every run seed.
	warm := freshDoc(rand.New(rand.NewSource(0)))
	if r := m.do(nil, warm, true, 0); r.err != nil {
		m.close()
		return nil, fmt.Errorf("warm-up document: %w", r.err)
	}
	return m, nil
}

func (m *mixServer) close() {
	m.tp.CloseIdleConnections()
	m.srv.Close()
	m.sched.Close()
}

// docResult is the client-side record of one document.
type docResult struct {
	doc      []byte
	fresh    bool
	submit   time.Duration // POST round trip
	firstRow time.Duration // submit to the first SSE row
	lastRow  time.Duration // submit to the last SSE row
	gaps     []time.Duration
	rows     []dynlb.Row
	status   int
	err      error
}

// do submits one document and reads all its rows over SSE.
func (m *mixServer) do(tr *tracer, doc []byte, fresh bool, req int64) (r docResult) {
	r.doc, r.fresh = doc, fresh
	root := tr.begin("bench.doc", 0, req)
	defer tr.end(root)
	ctx, cancel := context.WithTimeout(context.Background(), docTimeout)
	defer cancel()
	t0 := time.Now()

	sp := tr.begin("service.submit", root, req)
	st, err := m.submit(ctx, doc, &r)
	r.submit = time.Since(t0)
	tr.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	if st.Cached == fresh {
		r.err = fmt.Errorf("document answered with cached=%v, want %v (fresh=%v)", st.Cached, !fresh, fresh)
		return r
	}

	sp = tr.begin("service.stream_rows", root, req)
	defer tr.end(sp)
	hreq, _ := http.NewRequestWithContext(ctx, http.MethodGet, m.srv.URL+"/v1/experiments/"+st.ID+"/rows", nil)
	resp, err := m.hc.Do(hreq)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("rows of %s: %s", st.ID, resp.Status)
		return r
	}
	last := time.Duration(0)
	r.err = readSSE(resp.Body, func(event, data string) error {
		switch event {
		case "row":
			now := time.Since(t0)
			var row dynlb.Row
			if err := json.Unmarshal([]byte(data), &row); err != nil {
				return err
			}
			if len(r.rows) == 0 {
				r.firstRow = now
			} else {
				r.gaps = append(r.gaps, now-last)
			}
			last, r.lastRow = now, now
			r.rows = append(r.rows, row)
		case "error":
			return fmt.Errorf("job %s: %s", st.ID, data)
		}
		return nil
	})
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained so the connection is reused
	if r.err == nil && len(r.rows) != docJobs {
		r.err = fmt.Errorf("job %s streamed %d rows, want %d", st.ID, len(r.rows), docJobs)
	}
	return r
}

func (m *mixServer) submit(ctx context.Context, doc []byte, r *docResult) (service.Status, error) {
	var st service.Status
	hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, m.srv.URL+"/v1/experiments", bytes.NewReader(doc))
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := m.hc.Do(hreq)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode/100 != 2 {
		return st, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return st, json.Unmarshal(body, &st)
}

// readSSE calls fn for every event of a Server-Sent Events stream until
// the "done" event, an error, or the end of the stream.
func readSSE(body io.Reader, fn func(event, data string) error) error {
	br := bufio.NewReader(body)
	var event, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				return errors.New("row stream ended before its done event")
			}
			return err
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case line == "":
			if event == "done" {
				return nil
			}
			if event != "" {
				if err := fn(event, data); err != nil {
					return err
				}
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		}
	}
}

// mixRun is the shared state of the closed-loop clients.
type mixRun struct {
	mu            sync.Mutex
	results       []docResult
	fresh, cached int
	start         time.Time
	budget        time.Duration
	minimum       int // fresh and cached documents to collect at least
}

func (r *mixRun) more() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	el := time.Since(r.start)
	if el >= mixMaxTime {
		return false
	}
	return el < r.budget || r.fresh < r.minimum || r.cached < r.minimum
}

func (r *mixRun) add(d docResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results = append(r.results, d)
	if d.fresh {
		r.fresh++
	} else {
		r.cached++
	}
}

// closedLoop runs the clients over their document streams for budget
// (longer if needed to reach minimum samples) and returns every document
// result with the loop's host time.
func (m *mixServer) closedLoop(tr *tracer, streams []*docStream, budget time.Duration, minimum int) ([]docResult, time.Duration) {
	run := &mixRun{start: time.Now(), budget: budget, minimum: minimum}
	var wg sync.WaitGroup
	for c, g := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; run.more(); k++ {
				doc, fresh := g.next()
				run.add(m.do(tr, doc, fresh, int64(c)<<32|int64(k)))
			}
		}()
	}
	wg.Wait()
	return run.results, time.Since(run.start)
}

func runServiceMix(b *bench) error {
	var m *mixServer
	teardown, err := b.setup(func() (func(), error) {
		var err error
		m, err = startMixServer()
		if err != nil {
			return nil, err
		}
		return m.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	_, hits0, misses0 := m.sched.Cache().Stats()

	streams := make([]*docStream, mixClients)
	for c := range streams {
		streams[c] = newDocStream(b.o.seed, c)
	}
	var results []docResult
	var elapsed time.Duration
	l := &b.d.layers
	if b.tr == nil {
		results, elapsed = m.closedLoop(nil, streams, b.o.seconds, mixMinSamples)
	} else {
		// Tracing overhead: an untraced half, then the traced half that
		// the per-layer figures come from.
		untraced, _ := m.closedLoop(nil, streams, b.o.seconds/2, 0)
		traced, _ := m.closedLoop(b.tr, streams, b.o.seconds/2, mixMinSamples)
		results = append(untraced, traced...)
		for _, r := range untraced {
			if r.fresh && r.err == nil {
				l.untracedS = append(l.untracedS, r.lastRow.Seconds())
			}
		}
		for _, r := range traced {
			l.ops++
			if r.fresh && r.err == nil {
				l.tracedS = append(l.tracedS, r.lastRow.Seconds())
			}
		}
		b.recordServiceLayer(traced)
		var rows []dynlb.Row
		for _, r := range traced {
			if r.fresh && r.err == nil {
				rows = append(rows, r.rows...)
			}
		}
		b.measureCodec(rows)
	}
	_, hits, misses := m.sched.Cache().Stats()
	l.cacheHits, l.cacheMisses = hits-hits0, misses-misses0

	var firstRow, done, cached []float64
	jobs := 0
	for _, r := range results {
		b.op(r.err)
		if r.status == http.StatusTooManyRequests {
			l.rejected429++
		}
		if r.err != nil {
			continue
		}
		jobs += docJobs
		if r.fresh {
			b.d.sweepS = append(b.d.sweepS, r.lastRow.Seconds())
			firstRow = append(firstRow, ms(r.firstRow))
			done = append(done, ms(r.lastRow))
		} else {
			cached = append(cached, ms(r.lastRow))
		}
	}
	if elapsed > 0 {
		b.d.jobsPerS = []float64{float64(jobs) / elapsed.Seconds()}
	}
	if b.tr == nil {
		b.note("%s", tailNote("first_row_ms (fresh)", firstRow))
		b.note("%s", tailNote("done_ms (fresh)", done))
		b.note("%s", tailNote("cached_ms (resubmitted)", cached))
		b.note("closed loop: %d clients, %d fresh and %d resubmitted documents", mixClients, len(done), len(cached))
	}
	b.op(checkResubmissions(results))
	for _, err := range b.verifyDocs(results) {
		b.op(err)
	}
	return nil
}

// recordServiceLayer fills the service layer's client-side timings from
// the traced documents.
func (b *bench) recordServiceLayer(results []docResult) {
	l := &b.d.layers
	for _, r := range results {
		if r.err != nil {
			continue
		}
		l.submitMS = append(l.submitMS, ms(r.submit))
		if !r.fresh {
			l.cachedMS = append(l.cachedMS, ms(r.lastRow))
			continue
		}
		l.firstRowMS = append(l.firstRowMS, ms(r.firstRow))
		l.doneMS = append(l.doneMS, ms(r.lastRow))
		for _, g := range r.gaps {
			l.rowGapMS = append(l.rowGapMS, ms(g))
		}
	}
}

// checkResubmissions checks that every resubmitted document streamed the
// same rows as its fresh submission.
func checkResubmissions(results []docResult) error {
	fresh := make(map[string][]dynlb.Row)
	for _, r := range results {
		if r.fresh && r.err == nil {
			fresh[string(r.doc)] = r.rows
		}
	}
	for _, r := range results {
		if r.fresh || r.err != nil {
			continue
		}
		want, ok := fresh[string(r.doc)]
		if !ok {
			return errors.New("a resubmitted document has no successful fresh submission")
		}
		if err := sameRows("cached rows vs the fresh submission's rows", want, r.rows); err != nil {
			return err
		}
	}
	return nil
}

// verifyDocs simulates the first verifyFresh fresh documents again,
// locally and by hand, and compares their rows with the rows streamed over
// SSE. The local runs also supply the sim, engine and pipeline layer
// counters.
func (b *bench) verifyDocs(results []docResult) []error {
	var errs []error
	picked := 0
	for _, r := range results {
		if !r.fresh || r.err != nil || picked == verifyFresh {
			continue
		}
		picked++
		var req dynlb.ExperimentRequest
		if err := json.Unmarshal(r.doc, &req); err != nil {
			errs = append(errs, err)
			continue
		}
		exp, err := req.Experiment()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		rows, err := b.runByHand(nil, exp, 0, 0, int64(picked))
		if err == nil {
			err = sameRows("rows streamed over SSE vs a local run", rows, r.rows)
		}
		errs = append(errs, err)
	}
	b.d.layers.simOps = picked
	return errs
}
