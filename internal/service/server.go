package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"dynlb"
)

// Server is the HTTP/JSON surface of the experiment service:
//
//	POST   /v1/experiments            submit an ExperimentRequest document
//	GET    /v1/experiments            list jobs (submission order)
//	GET    /v1/experiments/{id}       job status
//	DELETE /v1/experiments/{id}       cancel a job (prompt, ctx.Err())
//	GET    /v1/experiments/{id}/rows  stream rows over SSE as slots complete
//	GET    /healthz                   liveness + pool/cache stats
//
// The rows endpoint streams Server-Sent Events: one "row" event per
// experiment row (compact dynlb.Row JSON, in the library's deterministic
// order — late subscribers replay the full prefix first), then a single
// "done" event carrying the final Status, or an "error" event for a failed
// or cancelled job. With ?format=csv or ?format=json it instead blocks
// until the job is terminal and returns the whole row set through
// dynlb.WriteRowsCSV / dynlb.WriteRowsJSON — byte-identical to the same
// experiment exported by cmd/experiments.
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
}

// NewServer wraps a scheduler in the HTTP API.
func NewServer(sched *Scheduler) *Server {
	s := &Server{sched: sched, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/experiments", s.submit)
	s.mux.HandleFunc("GET /v1/experiments", s.list)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.status)
	s.mux.HandleFunc("DELETE /v1/experiments/{id}", s.cancel)
	s.mux.HandleFunc("GET /v1/experiments/{id}/rows", s.rows)
	s.mux.HandleFunc("GET /healthz", s.health)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON writes a JSON response body with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the transport owns write failures
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxRequestBytes bounds a submitted document: 16x the largest one the
// tests and the benchmark send (1142 bytes). Larger bodies answer 413.
const maxRequestBytes = 18 << 10

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields() // a typoed option must not silently become a default
	var req dynlb.ExperimentRequest
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("decode request: %w", err))
		return
	}
	j, err := s.sched.Submit(&req)
	switch {
	case errors.Is(err, ErrBusy):
		// The hint tracks the pool's actual drain rate (backlog x observed
		// mean slot time) instead of a fixed second, so clients back off
		// proportionally to how overloaded the scheduler really is.
		w.Header().Set("Retry-After", strconv.Itoa(s.sched.RetryAfter()))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := j.Status()
	code := http.StatusAccepted
	if st.State == string(JobDone) { // cache hit (or simulation-free plan)
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.List())
}

// job resolves the {id} path value, answering 404 itself on a miss.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := s.sched.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil, false
	}
	return j, true
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j, err := s.sched.Cancel(j.ID())
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) rows(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "sse":
		s.streamSSE(w, r, j)
	case "csv", "json":
		s.collect(w, r, j, format)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want sse, csv or json)", format))
	}
}

// streamSSE streams the job's rows as Server-Sent Events in deterministic
// order: replay everything emitted so far, then follow completions until
// the job is terminal or the client goes away.
func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, j *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	sent := 0
	for {
		batch, state, jobErr, change := j.snapshotFrom(sent)
		for _, row := range batch {
			data, err := dynlb.MarshalRowJSON(row)
			if err != nil {
				fmt.Fprintf(w, "event: error\ndata: {\"error\": %q}\n\n", err.Error())
				flusher.Flush()
				return
			}
			fmt.Fprintf(w, "event: row\nid: %d\ndata: %s\n\n", sent, data)
			sent++
		}
		if len(batch) > 0 {
			flusher.Flush()
		}
		switch state {
		case JobDone:
			st, _ := json.Marshal(j.Status())
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", st)
			flusher.Flush()
			return
		case JobFailed, JobCancelled:
			fmt.Fprintf(w, "event: error\ndata: {\"error\": %q}\n\n", jobErr.Error())
			flusher.Flush()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-change:
		}
	}
}

// collect blocks until the job is terminal and writes the complete row set
// in the requested format — the same writers cmd/experiments uses, so the
// bytes match a local export exactly.
func (s *Server) collect(w http.ResponseWriter, r *http.Request, j *Job, format string) {
	select {
	case <-r.Context().Done():
		return
	case <-j.Done():
	}
	if err := j.Err(); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	rows := j.Rows()
	if format == "csv" {
		w.Header().Set("Content-Type", "text/csv")
		dynlb.WriteRowsCSV(w, rows) //nolint:errcheck // the transport owns write failures
		return
	}
	w.Header().Set("Content-Type", "application/json")
	dynlb.WriteRowsJSON(w, rows) //nolint:errcheck
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	entries, hits, misses := s.sched.Cache().Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"workers":      s.sched.Workers(),
		"jobs":         len(s.sched.List()),
		"cache_rows":   entries,
		"cache_hits":   hits,
		"cache_misses": misses,
	})
}
