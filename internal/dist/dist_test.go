package dist

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dynlb"
	"dynlb/internal/retry"
)

// tinySweep returns a small but non-trivial experiment: 2 strategies × 3
// sweep points × 2 replicates = 12 physical jobs across 6 slots.
func tinySweep() *dynlb.Experiment {
	cfg := dynlb.DefaultConfig()
	cfg.NPE = 8
	cfg.JoinQPSPerPE = 0.1
	cfg.Warmup = dynlb.Seconds(1)
	cfg.MeasureTime = dynlb.Seconds(3)
	sweep := dynlb.Sweep{
		Name: "dist-test",
		Base: cfg,
		Strategies: []dynlb.Strategy{
			dynlb.MustStrategy("psu-opt+RANDOM"),
			dynlb.MustStrategy("MIN-IO-SUOPT"),
		},
		Axes: []dynlb.Axis{
			dynlb.IntAxis("#PE", func(c *dynlb.Config, n int) { c.NPE = n }, 4, 6, 8),
		},
	}
	return dynlb.NewExperiment(sweep, dynlb.WithReps(2))
}

func localRows(t *testing.T) []dynlb.Row {
	t.Helper()
	rows, err := tinySweep().Run(context.Background())
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	return rows
}

func rowBytes(t *testing.T, rows []dynlb.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dynlb.WriteRowsJSON(&buf, rows); err != nil {
		t.Fatalf("encode rows: %v", err)
	}
	return buf.Bytes()
}

// TestDistributedBitIdentical is the tentpole acceptance test: the same
// sweep through a coordinator with two live workers must produce rows
// byte-identical to plain local execution.
func TestDistributedBitIdentical(t *testing.T) {
	want := rowBytes(t, localRows(t))

	w1 := httptest.NewServer(NewWorker(2))
	defer w1.Close()
	w2 := httptest.NewServer(NewWorker(2))
	defer w2.Close()

	coord := New(Options{
		Workers:      []string{w1.URL, w2.URL},
		ChunkJobs:    2,
		DisableLocal: true, // prove the remote path ran
	})
	defer coord.Close()

	exp := tinySweep()
	dynlb.WithDistributed(coord)(exp)
	rows, err := exp.Run(context.Background())
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if got := rowBytes(t, rows); !bytes.Equal(got, want) {
		t.Fatalf("distributed rows differ from local rows:\n got: %s\nwant: %s", got, want)
	}

	rep := coord.Report()
	if rep == nil {
		t.Fatal("no report after ExecutePlan")
	}
	if rep.LiveAtStart != 2 {
		t.Fatalf("LiveAtStart = %d, want 2", rep.LiveAtStart)
	}
	if rep.LocalJobs != 0 {
		t.Fatalf("LocalJobs = %d, want 0 with DisableLocal", rep.LocalJobs)
	}
	seen := map[string]int{}
	for _, s := range rep.Slots {
		seen[s.Worker]++
	}
	if len(seen) != 2 {
		t.Fatalf("placement used %d workers (%v), want both", len(seen), seen)
	}
}

// crashingHandler proxies to a real worker but hard-drops every connection
// after the first okAfter successful job batches — the coordinator sees a
// mid-sweep worker death and must re-dispatch to the survivor.
type crashingHandler struct {
	inner   http.Handler
	served  atomic.Int64
	okAfter int64
}

func (h *crashingHandler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if req.URL.Path == "/v1/jobs" {
		if h.served.Add(1) > h.okAfter {
			panic(http.ErrAbortHandler) // kills the connection without a response
		}
		h.inner.ServeHTTP(rw, req)
		return
	}
	if h.served.Load() >= h.okAfter {
		// Quota used up: the whole worker is dead — health probes fail too,
		// so it never rejoins the fleet.
		panic(http.ErrAbortHandler)
	}
	h.inner.ServeHTTP(rw, req)
}

// TestWorkerDeathRedispatch kills one of two workers after its first job
// batch; the sweep must still complete with rows bit-identical to local
// execution, exercising the re-dispatch path (asserted via the report).
func TestWorkerDeathRedispatch(t *testing.T) {
	want := rowBytes(t, localRows(t))

	healthy := httptest.NewServer(NewWorker(2))
	defer healthy.Close()
	crash := &crashingHandler{inner: NewWorker(2), okAfter: 1}
	crashing := httptest.NewServer(crash)
	defer crashing.Close()

	coord := New(Options{
		Workers:   []string{healthy.URL, crashing.URL},
		ChunkJobs: 2,
		// DisableLocal keeps the re-dispatch remote, proving the failover
		// lands on the healthy worker rather than the local fallback.
		DisableLocal: true,
		Backoff:      retry.Backoff{Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond},
		MaxAttempts:  5,
		Logf:         t.Logf,
	})
	defer coord.Close()

	exp := tinySweep()
	dynlb.WithDistributed(coord)(exp)
	rows, err := exp.Run(context.Background())
	if err != nil {
		t.Fatalf("distributed run with crashing worker: %v", err)
	}
	if got := rowBytes(t, rows); !bytes.Equal(got, want) {
		t.Fatal("rows after worker death differ from local rows")
	}
	rep := coord.Report()
	if rep.Redispatches == 0 {
		t.Fatalf("Redispatches = 0, want > 0 (crash not exercised); report %+v", rep)
	}
	for _, s := range rep.Slots {
		if s.Worker == "local" {
			t.Fatalf("slot %d ran locally despite DisableLocal", s.Slot)
		}
	}
}

// TestNoWorkersLocalFallback: an empty (and an unreachable) fleet must
// degrade to local execution with identical rows.
func TestNoWorkersLocalFallback(t *testing.T) {
	want := rowBytes(t, localRows(t))

	for _, workers := range [][]string{nil, {"http://127.0.0.1:1"}} {
		coord := New(Options{
			Workers:      workers,
			ProbeTimeout: 200 * time.Millisecond,
		})
		exp := tinySweep()
		dynlb.WithDistributed(coord)(exp)
		rows, err := exp.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%v: %v", workers, err)
		}
		if got := rowBytes(t, rows); !bytes.Equal(got, want) {
			t.Fatalf("workers=%v: local-fallback rows differ", workers)
		}
		rep := coord.Report()
		if rep.LiveAtStart != 0 {
			t.Fatalf("workers=%v: LiveAtStart = %d, want 0", workers, rep.LiveAtStart)
		}
		for _, s := range rep.Slots {
			if s.Worker != "local" {
				t.Fatalf("workers=%v: slot %d placed on %q, want local", workers, s.Slot, s.Worker)
			}
		}
		coord.Close()
	}
}

// slowOnce delays the first job batch long past the coordinator's
// RequestTimeout but answers it eventually, forcing the abandoned
// request's late reply to collide with the re-dispatched copy — a genuine
// duplicate completion.
type slowOnce struct {
	inner http.Handler
	n     atomic.Int64
	delay time.Duration
}

func (h *slowOnce) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if req.URL.Path == "/v1/jobs" && h.n.Add(1) == 1 {
		time.Sleep(h.delay)
	}
	h.inner.ServeHTTP(rw, req)
}

// TestLateDuplicateDropped exercises the abandon-without-cancel path: the
// slow worker's reply arrives after the range was re-dispatched, so one
// copy must be dropped (byte-verified) and the rows stay bit-identical.
func TestLateDuplicateDropped(t *testing.T) {
	want := rowBytes(t, localRows(t))

	slow := &slowOnce{inner: NewWorker(2), delay: 1500 * time.Millisecond}
	sl := httptest.NewServer(slow)
	defer sl.Close()
	fast := httptest.NewServer(NewWorker(2))
	defer fast.Close()

	coord := New(Options{
		Workers:        []string{sl.URL, fast.URL},
		ChunkJobs:      2,
		RequestTimeout: 200 * time.Millisecond,
		Backoff:        retry.Backoff{Base: 10 * time.Millisecond, Cap: 20 * time.Millisecond},
		MaxAttempts:    10,
		DisableLocal:   true,
	})
	defer coord.Close()

	exp := tinySweep()
	dynlb.WithDistributed(coord)(exp)
	rows, err := exp.Run(context.Background())
	if err != nil {
		t.Fatalf("distributed run with slow worker: %v", err)
	}
	if got := rowBytes(t, rows); !bytes.Equal(got, want) {
		t.Fatal("rows with duplicate completion differ from local rows")
	}
	// The slow request is only a duplicate if its range re-ran elsewhere
	// before the late reply landed; with a 1.5 s delay vs a 200 ms abandon
	// that is deterministic in practice.
	if rep := coord.Report(); rep.Duplicates == 0 && rep.Redispatches == 0 {
		t.Fatalf("neither duplicates nor redispatches recorded: %+v", rep)
	}
}

// TestDuplicateMismatchFails pins the byte-equality assertion on
// duplicate completions: differing Results for the same job must fail the
// sweep as a determinism violation.
func TestDuplicateMismatchFails(t *testing.T) {
	a := dynlb.Results{Strategy: "x", NPE: 4, CPUUtil: 0.5}
	b := a
	if err := verifySameResults(a, b, 7); err != nil {
		t.Fatalf("identical results rejected: %v", err)
	}
	b.CPUUtil = 0.75
	if err := verifySameResults(a, b, 7); err == nil {
		t.Fatal("differing duplicate accepted")
	}
}

// TestResultsCodecRoundTrip: the wire codec must round-trip Results
// exactly, including NaN/±Inf (which plain JSON cannot carry) and nested
// Window floats.
func TestResultsCodecRoundTrip(t *testing.T) {
	r := dynlb.Results{
		Strategy:      "psu-opt+RANDOM",
		NPE:           8,
		AvgJoinDegree: 3.0000000000000004, // forces shortest-form float fidelity
		CPUUtil:       math.NaN(),
		DiskUtil:      math.Inf(1),
		MemUtil:       math.Inf(-1),
		Windows: []dynlb.Window{
			{StartMS: 0, RTMeanMS: math.NaN(), JoinTPS: 0.1 + 0.2},
			{StartMS: 1000, RTMeanMS: 42.5, JoinTPS: math.Inf(1)},
		},
	}
	raw, patches, err := encodeResults(r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(patches) != 5 {
		t.Fatalf("got %d non-finite patches, want 5", len(patches))
	}
	got, err := decodeResults(raw, patches)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// reflect.DeepEqual treats NaN != NaN, so compare via re-encoding.
	raw2, patches2, err := encodeResults(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(raw, raw2) || !reflect.DeepEqual(patches, patches2) {
		t.Fatalf("round trip changed results:\n %s\n %s", raw, raw2)
	}

	// The all-finite fast path carries no patches.
	r2 := dynlb.Results{Strategy: "s", JoinTPS: 0.30000000000000004}
	raw, patches, err = encodeResults(r2)
	if err != nil {
		t.Fatalf("encode finite: %v", err)
	}
	if patches != nil {
		t.Fatalf("finite results produced patches: %v", patches)
	}
	got, err = decodeResults(raw, nil)
	if err != nil {
		t.Fatalf("decode finite: %v", err)
	}
	if !reflect.DeepEqual(got, r2) {
		t.Fatalf("finite round trip changed results: %+v != %+v", got, r2)
	}
}

// TestPortableStrategy: every built-in strategy must survive the wire;
// a user-defined strategy must be detected as non-portable.
func TestPortableStrategy(t *testing.T) {
	for _, name := range dynlb.StrategyNames() {
		st := dynlb.MustStrategy(name)
		got, ok := portableStrategy(st)
		if !ok || got != name {
			t.Errorf("built-in %q not portable (got %q, %v)", name, got, ok)
		}
	}
	fd, err := dynlb.FixedDegree(7, "LUC")
	if err != nil {
		t.Fatal(err)
	}
	if name, ok := portableStrategy(fd); !ok || name != "p=7+LUC" {
		t.Errorf("FixedDegree(7, LUC) not portable: %q %v", name, ok)
	}
	if _, ok := portableStrategy(opaqueStrategy{}); ok {
		t.Error("user-defined strategy reported portable")
	}
}

type opaqueStrategy struct{ dynlb.Strategy }

func (opaqueStrategy) Name() string { return "MIN-IO" } // lies about its identity

// TestPoolRunPlanJob drives the service-backend path: per-job remote
// execution with failover, storing results in the plan.
func TestPoolRunPlanJob(t *testing.T) {
	srv := httptest.NewServer(NewWorker(2))
	defer srv.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer dead.Close()

	pool := NewPool(Options{
		Workers: []string{dead.URL, srv.URL},
		Backoff: retry.Backoff{Base: 5 * time.Millisecond, Cap: 10 * time.Millisecond},
	})
	defer pool.Close()
	// pick breaks in-flight ties by URL, and the two test servers' ports
	// order at random. A phantom request on the live worker makes the
	// dead one the least loaded, so the first job always fails over.
	pool.clients[1].inflight.Add(1)
	defer pool.clients[1].inflight.Add(-1)

	p, err := tinySweep().Plan()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.NumJobs(); i++ {
		if err := pool.RunPlanJob(context.Background(), p, i); err != nil {
			t.Fatalf("RunPlanJob(%d): %v", i, err)
		}
		batch, err := p.Complete(i)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, batch...)
	}
	if !p.Done() {
		t.Fatal("plan not done")
	}
	if got, want := rowBytes(t, rows), rowBytes(t, localRows(t)); !bytes.Equal(got, want) {
		t.Fatal("pool-executed rows differ from local rows")
	}
	if pool.NumLive() != 1 {
		t.Fatalf("NumLive = %d after failover, want 1 (dead worker stays down)", pool.NumLive())
	}
}
