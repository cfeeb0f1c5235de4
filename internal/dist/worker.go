package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"

	"dynlb"
)

// Worker is the HTTP handler of one fleet member (cmd/dynlbworker mounts
// it on a plain net/http server). It is stateless between requests: every
// job arrives as its full simulation inputs and is executed with the same
// dynlb.Run the library uses locally, so results are bit-identical to any
// other placement of the job.
//
// Endpoints:
//
//	POST /v1/jobs  — run a batch of jobs; body runRequest, reply runResponse.
//	GET  /healthz  — liveness + load: {"status":"ok","slots":N,"busy":B,"jobs_done":D}.
type Worker struct {
	mux      *http.ServeMux
	sem      chan struct{} // execution slots shared across requests
	busy     atomic.Int64
	jobsDone atomic.Int64
}

// NewWorker returns a worker executing at most slots simulations at once
// (<= 0 selects runtime.NumCPU()). Batches beyond the limit queue on the
// shared semaphore, so an overloaded worker slows down rather than
// oversubscribing its CPUs.
func NewWorker(slots int) *Worker {
	if slots < 1 {
		slots = runtime.NumCPU()
	}
	w := &Worker{
		mux: http.NewServeMux(),
		sem: make(chan struct{}, slots),
	}
	w.mux.HandleFunc("POST /v1/jobs", w.handleJobs)
	w.mux.HandleFunc("GET /healthz", w.handleHealth)
	return w
}

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	w.mux.ServeHTTP(rw, req)
}

// Slots returns the worker's execution-slot count.
func (w *Worker) Slots() int { return cap(w.sem) }

// JobsDone returns the number of jobs executed since start.
func (w *Worker) JobsDone() int64 { return w.jobsDone.Load() }

func (w *Worker) handleHealth(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(rw, `{"status":"ok","slots":%d,"busy":%d,"jobs_done":%d}`+"\n",
		cap(w.sem), w.busy.Load(), w.jobsDone.Load())
}

// maxJobsBytes bounds a job batch: 16x the largest one the tests and the
// benchmark send (4336 bytes). Larger bodies answer 413, which the
// coordinator treats like any failed dispatch.
const maxJobsBytes = 68 << 10

func (w *Worker) handleJobs(rw http.ResponseWriter, req *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(rw, req.Body, maxJobsBytes))
	dec.DisallowUnknownFields()
	var in runRequest
	if err := dec.Decode(&in); err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(rw, "bad request: "+err.Error(), code)
		return
	}
	resp := runResponse{Results: make([]wireResult, len(in.Jobs))}
	for i, j := range in.Jobs {
		// The client waits for the whole batch anyway (ranges are the unit
		// of dispatch), so jobs run sequentially here; parallelism comes
		// from the coordinator keeping several ranges in flight per worker
		// fleet. The semaphore still bounds concurrent simulations across
		// overlapping requests.
		select {
		case w.sem <- struct{}{}:
		case <-req.Context().Done():
			return // coordinator gave up; nothing can read the reply
		}
		w.busy.Add(1)
		resp.Results[i] = w.runOne(j)
		w.busy.Add(-1)
		<-w.sem
	}
	rw.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(rw).Encode(resp); err != nil {
		// Connection-level failure; the coordinator's timeout handles it.
		return
	}
}

// runOne executes a single job, converting panics and simulation errors
// into an error result so one bad job cannot take down the batch.
func (w *Worker) runOne(j wireJob) (res wireResult) {
	res.ID = j.ID
	defer func() {
		if p := recover(); p != nil {
			res = wireResult{ID: j.ID, Err: fmt.Sprintf("worker panic: %v", p)}
		}
	}()
	st, err := dynlb.StrategyByName(j.Strategy)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	r, err := dynlb.Run(j.Config, st)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	w.jobsDone.Add(1)
	raw, patches, err := encodeResults(r)
	if err != nil {
		res.Err = "encode results: " + err.Error()
		return res
	}
	res.Results = raw
	res.NonFinite = patches
	return res
}
