package main

import (
	"fmt"
	"time"
)

// metric is one entry of the result line's "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricValue is a metric with its name and sample count, as reported.
type metricValue struct {
	name  string
	value float64
	unit  string
	n     int
}

// runData holds the measurements of one run; endToEnd and perLayer derive
// the printed metrics from it.
type runData struct {
	setupS    []float64 // each set-up repetition, host seconds
	sweepS    []float64 // each complete sweep (service-mix: fresh document), host seconds
	jobsPerS  []float64 // simulation jobs delivered per host second: per sweep, or over the whole closed loop
	peakRSSMB float64
	failRatio float64
	layers    layerData
	notes     []string // extra report lines
}

// layerData holds the traced run's per-layer measurements. Count-like
// fields are totals over the traced operations; the metrics divide them
// by ops.
type layerData struct {
	ops    int // traced operations (sweeps or documents): the divisor of self times
	simOps int // operations whose jobs ran by hand: the divisor of sim and model counts

	// sim: internal/sim kernel counters read after each job.
	events, inlineWakes, handoffs      int64
	spawns, spawnReuses, lightSpawns   int64
	overflowPushes                     int64
	runNS                              int64 // host ns inside System.Run
	jobMS                              []float64
	joins, oltp, tempIO, deadlocks     int64 // exact simulated counts
	planMS, startUS                    []float64
	completeNS                         int64
	slots                              int
	csvNSPerRow, jsonNSPerRow, rowJSON float64

	// dist: internal/dist coordinator and pool.
	wireOverheadMS                                  []float64
	remoteJobs, redispatches, duplicates, localJobs int

	// service: client-side timings against internal/service.
	submitMS, rowGapMS, firstRowMS, doneMS, cachedMS []float64
	cacheHits, cacheMisses                           int64
	rejected429                                      int

	// tracing overhead: the same operation untraced and traced.
	untracedS, tracedS []float64
	selfMS             map[string]float64 // per layer, per traced operation
}

// layerNames are the layers spans are attributed to, named after the
// repository's modules (see README.md).
var layerNames = []string{"bench", "sim", "engine", "pipeline", "codec", "dist", "service"}

// endToEnd derives the end-to-end metrics of an untraced run. Every
// workload reports every one of them.
func endToEnd(d *runData) []metricValue {
	return []metricValue{
		{"setup_s", median(d.setupS), "s", len(d.setupS)},
		{"sweep_s", median(d.sweepS), "s", len(d.sweepS)},
		{"jobs_per_s", median(d.jobsPerS), "1/s", len(d.jobsPerS)},
		{"peak_rss_mb", d.peakRSSMB, "MB", 1},
	}
}

// perLayer derives the per-layer metrics of a traced run. Every workload
// reports every one of them; a layer the workload does not exercise reads 0.
func perLayer(d *runData) []metricValue {
	l := &d.layers
	ops := float64(l.simOps)
	ev := float64(l.events)
	ms := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
	out := []metricValue{
		{"sim.events", per(ev, ops), "count", l.simOps},
		{"sim.ns_per_event", per(float64(l.runNS), ev), "ns", int(l.events)},
		{"sim.handoffs_per_event", per(float64(l.handoffs), ev), "ratio", int(l.events)},
		{"sim.inline_wakes_per_event", per(float64(l.inlineWakes), ev), "ratio", int(l.events)},
		{"sim.spawns", per(float64(l.spawns), ops), "count", l.simOps},
		{"sim.spawn_reuses", per(float64(l.spawnReuses), ops), "count", l.simOps},
		{"sim.light_spawns", per(float64(l.lightSpawns), ops), "count", l.simOps},
		{"sim.overflow_pushes", per(float64(l.overflowPushes), ops), "count", l.simOps},

		{"engine.job_ms_p50", median(l.jobMS), "ms", len(l.jobMS)},
		{"engine.host_ms_per_join", per(ms(l.runNS), float64(l.joins)), "ms", int(l.joins)},
		{"engine.host_us_per_oltp_txn", per(1000*ms(l.runNS), float64(l.oltp)), "us", int(l.oltp)},

		{"model.joins_done", per(float64(l.joins), ops), "count", l.simOps},
		{"model.oltp_done", per(float64(l.oltp), ops), "count", l.simOps},
		{"model.temp_io_pages", per(float64(l.tempIO), ops), "count", l.simOps},
		{"model.deadlocks", per(float64(l.deadlocks), ops), "count", l.simOps},

		{"pipeline.plan_ms", median(l.planMS), "ms", len(l.planMS)},
		{"pipeline.start_us", median(l.startUS), "us", len(l.startUS)},
		{"pipeline.complete_us_per_slot", per(float64(l.completeNS)/1e3, float64(l.slots)), "us", l.slots},

		{"codec.csv_ns_per_row", l.csvNSPerRow, "ns", 1},
		{"codec.json_ns_per_row", l.jsonNSPerRow, "ns", 1},
		{"codec.row_json_bytes", l.rowJSON, "bytes", 1},

		{"dist.wire_overhead_ms_per_job", median(l.wireOverheadMS), "ms", len(l.wireOverheadMS)},
		{"dist.remote_jobs", float64(l.remoteJobs), "count", 1},
		{"dist.redispatches", float64(l.redispatches), "count", 1},
		{"dist.duplicates", float64(l.duplicates), "count", 1},
		{"dist.local_jobs", float64(l.localJobs), "count", 1},

		{"service.submit_ms_p50", median(l.submitMS), "ms", len(l.submitMS)},
		{"service.row_gap_ms_p50", median(l.rowGapMS), "ms", len(l.rowGapMS)},
		{"service.first_row_ms_p90", percentile(l.firstRowMS, 90), "ms", len(l.firstRowMS)},
		{"service.done_ms_p50", median(l.doneMS), "ms", len(l.doneMS)},
		{"service.cached_ms_p50", median(l.cachedMS), "ms", len(l.cachedMS)},
		{"service.cached_ms_p90", percentile(l.cachedMS, 90), "ms", len(l.cachedMS)},
		{"service.cache_hits", float64(l.cacheHits), "count", 1},
		{"service.cache_misses", float64(l.cacheMisses), "count", 1},
		{"service.rejected_429", float64(l.rejected429), "count", 1},

		{"trace.overhead_s", median(l.tracedS) - median(l.untracedS), "s", min(len(l.tracedS), len(l.untracedS))},
		{"bench.fail_ratio", d.failRatio, "ratio", 1},
	}
	for _, layer := range layerNames {
		out = append(out, metricValue{layer + ".self_ms", l.selfMS[layer], "ms", l.ops})
	}
	return out
}

// tailNote formats a timing sample as its median plus the highest
// percentile with at least minBeyond samples beyond it.
func tailNote(name string, xs []float64) string {
	p := highestPercentile(len(xs))
	return fmt.Sprintf("%s p50 %.3f ms, p%g %.3f ms (n=%d)", name, median(xs), p, percentile(xs, p), len(xs))
}
