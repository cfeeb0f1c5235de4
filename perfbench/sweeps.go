package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dynlb"
	"dynlb/internal/dist"
	"dynlb/internal/engine"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 7

// joinSweepJobs is the fixed subset of Fig. 6 the join-sweep workload
// runs: the first 12 jobs of the quick plan, i.e. the 10 and 20 PE points
// (five dynamic strategies plus the single-user reference each), about
// 2 s on a 2-core host. The full sweep takes about 35 s there, too long
// to repeat within one run.
const joinSweepJobs = 12

// sweepSpec describes a sweep workload to runSweeps.
type sweepSpec struct {
	jobs  int                                 // simulation jobs per sweep
	setup func() (teardown func(), err error) // boots what a sweep needs and warms it up
	// reseed gives each sweep of a run its own seed (sweepSeed; sweep 0
	// keeps the run seed), so a run's median averages over several inputs;
	// without it every sweep repeats the run seed and must reproduce the
	// first sweep's rows.
	reseed bool
	// sweep runs sweep k through the public entry point.
	sweep func(k int) ([]dynlb.Row, error)
	// traced runs sweep k again by hand, job by job, with spans under
	// root; its rows must equal the untraced rows.
	traced func(k int, root int) ([]dynlb.Row, error)
	// verify checks the rows of every sweep after the timed region.
	verify func(rows [][]dynlb.Row) error
	// extra, if set, takes a workload's own per-layer measurements after
	// the timed region of a traced run.
	extra func() error
}

func runJoinSweep(b *bench) error {
	exp := func(k int) *dynlb.Experiment {
		return dynlb.NewExperiment(dynlb.Figure("6"), dynlb.WithScale(dynlb.ScaleQuick),
			dynlb.WithSeed(b.sweepSeed(k)), dynlb.WithWorkers(1))
	}
	return b.runSweeps(sweepSpec{
		jobs:   joinSweepJobs,
		reseed: true,
		setup: func() (func(), error) {
			p, err := exp(0).Plan()
			if err != nil {
				return nil, err
			}
			return func() {}, warmUp(p.Job(0))
		},
		sweep: func(k int) ([]dynlb.Row, error) {
			// Plan.RunJob/Complete over the prefix: exactly what Run's
			// one-worker pool does for these jobs.
			p, err := exp(k).Plan()
			if err != nil {
				return nil, err
			}
			var rows []dynlb.Row
			for i := 0; i < joinSweepJobs; i++ {
				if err := p.RunJob(i); err != nil {
					return nil, err
				}
				batch, err := p.Complete(i)
				if err != nil {
					return nil, err
				}
				rows = append(rows, batch...)
			}
			return rows, nil
		},
		traced: func(k int, root int) ([]dynlb.Row, error) {
			return b.runByHand(b.tr, exp(k), joinSweepJobs, root, int64(k))
		},
		verify: func(all [][]dynlb.Row) error {
			// Every sweep must have the golden file's points in its order;
			// the sweep at seed 1 must match it byte for byte.
			for k, rows := range all {
				if err := b.checkGolden(filepath.Join("testdata", "fig6_quick.csv"), rows, b.sweepSeed(k) == 1); err != nil {
					return fmt.Errorf("sweep %d (seed %d): %w", k, b.sweepSeed(k), err)
				}
			}
			return nil
		},
	})
}

// oltpMixedSweep is the Fig. 9b configuration at 40 PEs: 5 disks per PE,
// joins at 0.075 QPS/PE and debit-credit OLTP at 100 TPS on each B node.
func oltpMixedSweep() dynlb.Sweep {
	cfg := dynlb.DefaultConfig()
	cfg.DisksPerPE = 5
	cfg.JoinQPSPerPE = 0.075
	cfg.OLTP.Placement = dynlb.OLTPOnBNode
	cfg.OLTP.TPSPerNode = 100
	return dynlb.Sweep{
		Name:       "9b",
		Base:       cfg,
		Strategies: []dynlb.Strategy{dynlb.MustStrategy("psu-opt+RANDOM"), dynlb.MustStrategy("OPT-IO-CPU")},
		Axes:       []dynlb.Axis{dynlb.IntAxis("#PE", func(c *dynlb.Config, n int) { c.NPE = n }, 40)},
	}
}

func runOLTPMixed(b *bench) error {
	exp := func(opts ...dynlb.Option) *dynlb.Experiment {
		return dynlb.NewExperiment(oltpMixedSweep(), append([]dynlb.Option{dynlb.WithScale(dynlb.ScaleQuick),
			dynlb.WithSeed(b.o.seed), dynlb.WithWorkers(1)}, opts...)...)
	}
	return b.runSweeps(sweepSpec{
		jobs: 2,
		setup: func() (func(), error) {
			p, err := exp().Plan()
			if err != nil {
				return nil, err
			}
			return func() {}, warmUp(p.Job(0))
		},
		sweep: func(int) ([]dynlb.Row, error) {
			return exp().Run(context.Background())
		},
		traced: func(k int, root int) ([]dynlb.Row, error) {
			return b.runByHand(b.tr, exp(), 0, root, int64(k))
		},
		verify: func(all [][]dynlb.Row) error {
			for _, r := range all[0] {
				if r.Res.JoinsDone == 0 || r.Res.OLTPDone == 0 {
					return fmt.Errorf("oltp-mixed row %s: %d joins, %d OLTP transactions; want both > 0",
						r.Series, r.Res.JoinsDone, r.Res.OLTPDone)
				}
			}
			return nil
		},
	})
}

// fleet is the fleet-sweep's coordinator with its two loopback workers.
type fleet struct {
	workers []*httptest.Server
	tp      *http.Transport
	coord   *dist.Coordinator
}

func startFleet() (*fleet, error) {
	f := &fleet{tp: &http.Transport{MaxConnsPerHost: 1}} // one connection per worker
	var urls []string
	for i := 0; i < 2; i++ {
		w := httptest.NewServer(dist.NewWorker(1))
		f.workers = append(f.workers, w)
		urls = append(urls, w.URL)
	}
	f.coord = dist.New(dist.Options{
		Workers:      urls,
		Client:       &http.Client{Transport: f.tp},
		DisableLocal: true, // every job must cross the wire
		LocalWorkers: 1,
	})
	if live := f.coord.Pool().Probe(context.Background()); live != len(urls) {
		f.close()
		return nil, fmt.Errorf("fleet probe: %d of %d workers live", live, len(urls))
	}
	return f, nil
}

func (f *fleet) close() {
	f.coord.Close()
	f.tp.CloseIdleConnections()
	for _, w := range f.workers {
		w.Close()
	}
}

func runFleetSweep(b *bench) error {
	exp := func(k int, opts ...dynlb.Option) *dynlb.Experiment {
		return dynlb.NewExperiment(dynlb.Figure("1c"), append([]dynlb.Option{dynlb.WithScale(dynlb.ScaleQuick),
			dynlb.WithReps(4), dynlb.WithSeed(b.sweepSeed(k))}, opts...)...)
	}
	var f *fleet
	return b.runSweeps(sweepSpec{
		jobs:   40,
		reseed: true,
		setup: func() (func(), error) {
			var err error
			if f, err = startFleet(); err != nil {
				return nil, err
			}
			// Warm-up: one small two-job sweep across the wire.
			st := dynlb.MustStrategy("OPT-IO-CPU")
			cfg := warmUpConfig(dynlb.DefaultConfig())
			_, err = dynlb.NewExperiment(dynlb.Sweep{Name: "warm-up", Base: cfg, Strategies: []dynlb.Strategy{st, st}},
				dynlb.WithDistributed(f.coord)).Run(context.Background())
			return f.close, err
		},
		sweep: func(k int) ([]dynlb.Row, error) {
			rows, err := exp(k, dynlb.WithDistributed(f.coord)).Run(context.Background())
			if rep := f.coord.Report(); rep != nil {
				l := &b.d.layers
				l.remoteJobs = 40 - rep.LocalJobs
				l.localJobs, l.redispatches, l.duplicates = rep.LocalJobs, rep.Redispatches, rep.Duplicates
			}
			return rows, err
		},
		traced: func(k int, root int) ([]dynlb.Row, error) {
			return b.runByHand(b.tr, exp(k), 0, root, int64(k))
		},
		extra: func() error { return b.measureWire(func() *dynlb.Experiment { return exp(0) }, f.coord.Pool()) },
		verify: func(all [][]dynlb.Row) error {
			// The first sweep against a local run of the same plan; the
			// others (other seeds) must have its points in its order.
			local, err := exp(0, dynlb.WithWorkers(2)).Run(context.Background())
			if err != nil {
				return err
			}
			if err := sameRows("fleet-sweep rows vs a local run", local, all[0]); err != nil {
				return err
			}
			want, err := csvOf(all[0])
			if err != nil {
				return err
			}
			for k, rows := range all[1:] {
				got, err := csvOf(rows)
				if err != nil {
					return err
				}
				if err := sameLabels(string(want), string(got)); err != nil {
					return fmt.Errorf("sweep %d: %w", k+1, err)
				}
			}
			return nil
		},
	})
}

// measureWire runs every job of the plan twice, one job at a time: once
// locally through Plan.RunJob and once across the wire through
// Pool.RunPlanJob, alternating which goes first. It records the
// difference per job and checks that both plans yield the same rows.
func (b *bench) measureWire(exp func() *dynlb.Experiment, pool *dist.Pool) error {
	local, err := exp().Plan()
	if err != nil {
		return err
	}
	remote, err := exp().Plan()
	if err != nil {
		return err
	}
	root := b.tr.begin("bench.wire", 0, -1)
	defer b.tr.end(root)
	var want, got []dynlb.Row
	var localTotal time.Duration
	for i := 0; i < local.NumJobs(); i++ {
		runLocal := func() (time.Duration, error) {
			sp := b.tr.begin("engine.run_job", root, int64(i))
			defer b.tr.end(sp)
			t0 := time.Now()
			err := local.RunJob(i)
			return time.Since(t0), err
		}
		runRemote := func() (time.Duration, error) {
			sp := b.tr.begin("dist.run_plan_job", root, int64(i))
			defer b.tr.end(sp)
			t0 := time.Now()
			err := pool.RunPlanJob(context.Background(), remote, i)
			return time.Since(t0), err
		}
		first, second := runLocal, runRemote
		if i%2 == 1 {
			first, second = runRemote, runLocal
		}
		d1, err := first()
		if err != nil {
			return err
		}
		d2, err := second()
		if err != nil {
			return err
		}
		if i%2 == 1 {
			d1, d2 = d2, d1
		}
		localTotal += d1
		b.d.layers.wireOverheadMS = append(b.d.layers.wireOverheadMS, ms(d2-d1))
		lr, err := local.Complete(i)
		if err != nil {
			return err
		}
		rr, err := remote.Complete(i)
		if err != nil {
			return err
		}
		want, got = append(want, lr...), append(got, rr...)
	}
	// The untraced sweeps ran across the wire, two jobs at a time, so the
	// tracing overhead of the by-hand local sweep is taken against this
	// untraced sequential local run of the same jobs instead.
	b.d.layers.untracedS = []float64{localTotal.Seconds()}
	return sameRows("rows of jobs run one at a time through the pool", want, got)
}

// warmUp runs one small copy of a workload job — 10 PEs, 5 simulated
// seconds, a fixed seed, so the same work at every run seed — so lazily
// grown pools and the heap are in place before timing.
func warmUp(cfg dynlb.Config, st dynlb.Strategy) error {
	_, err := dynlb.Run(warmUpConfig(cfg), st)
	return err
}

func warmUpConfig(cfg dynlb.Config) dynlb.Config {
	cfg.NPE, cfg.Seed = 10, 1
	cfg.Warmup, cfg.MeasureTime = dynlb.Seconds(1), dynlb.Seconds(4)
	return cfg
}

// sweepSeed is the seed of a run's k-th sweep under sweepSpec.reseed:
// the run seed for sweep 0, else the k-th seed of the replicate stream of
// the run seed's complement. Not the run seed's own stream: a replicated
// sweep at seed s already uses that stream for its replicates, so sweep k
// would share replicate k with sweep 0.
func (b *bench) sweepSeed(k int) int64 {
	if k == 0 {
		return b.o.seed
	}
	return dynlb.ReplicateSeeds(^b.o.seed, k+1)[k]
}

// runSweeps runs a sweep workload: set up
// setupReps times, then run sweeps until the next one would overrun the
// timed region; a traced run follows each untraced sweep with the same
// sweep by hand. Rows are checked after the timed region.
func (b *bench) runSweeps(w sweepSpec) error {
	teardown, err := b.setup(w.setup)
	if err != nil {
		return err
	}
	defer teardown()

	var all [][]dynlb.Row
	var iters []float64
	start := time.Now()
	for k := 0; k == 0 || time.Since(start)+time.Duration(median(iters)*float64(time.Second)) <= b.o.seconds; k++ {
		t0 := time.Now()
		rows, err := w.sweep(k)
		d := time.Since(t0)
		if err == nil && !w.reseed && k > 0 {
			err = sameRows("rows of a repeated sweep", all[0], rows)
		}
		b.op(err)
		if err != nil {
			break
		}
		all = append(all, rows)
		b.d.sweepS = append(b.d.sweepS, d.Seconds())
		b.d.jobsPerS = append(b.d.jobsPerS, float64(w.jobs)/d.Seconds())
		if b.tr != nil {
			root := b.tr.begin("bench.sweep", 0, int64(k))
			t1 := time.Now()
			trows, err := w.traced(k, root)
			b.tr.end(root)
			if err == nil {
				err = sameRows("traced rows vs untraced rows", rows, trows)
			}
			b.op(err)
			if err != nil {
				break
			}
			l := &b.d.layers
			l.untracedS = append(l.untracedS, d.Seconds())
			l.tracedS = append(l.tracedS, time.Since(t1).Seconds())
			l.ops++
			l.simOps++
		}
		iters = append(iters, time.Since(t0).Seconds())
	}
	if len(all) == 0 {
		return nil
	}
	b.note("sweep_s samples: %s", strings.Trim(fmt.Sprintf("%.3f", b.d.sweepS), "[]"))
	if b.tr != nil {
		b.measureCodec(all[0])
		if w.extra != nil {
			b.op(w.extra())
		}
	}
	b.op(w.verify(all))
	return nil
}

// setup runs fn setupReps times, tearing down all but the last, and
// records each repetition's host time.
func (b *bench) setup(fn func() (func(), error)) (func(), error) {
	teardown := func() {}
	for r := 0; r < setupReps; r++ {
		teardown()
		t0 := time.Now()
		td, err := fn()
		b.d.setupS = append(b.d.setupS, time.Since(t0).Seconds())
		if err != nil {
			if td != nil {
				td()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		teardown = td
	}
	b.note("process start to first timed operation: %.3f s", time.Since(processStart).Seconds())
	return teardown, nil
}

// runByHand runs the first n jobs of exp's plan (all when n is 0) the way
// Plan.RunJob does, split into its calls so the kernel counters can be
// read, with a span around each call when tr is not nil.
func (b *bench) runByHand(tr *tracer, exp *dynlb.Experiment, n int, root int, req int64) ([]dynlb.Row, error) {
	l := &b.d.layers
	sp := tr.begin("pipeline.plan", root, req)
	t0 := time.Now()
	p, err := exp.Plan()
	l.planMS = append(l.planMS, ms(time.Since(t0)))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("pipeline.start", root, req)
	t0 = time.Now()
	rows, err := p.Start()
	l.startUS = append(l.startUS, float64(time.Since(t0))/float64(time.Microsecond))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > p.NumJobs() {
		n = p.NumJobs()
	}
	for i := 0; i < n; i++ {
		batch, err := b.runJob(tr, p, i, root, req)
		if err != nil {
			return nil, err
		}
		rows = append(rows, batch...)
	}
	return rows, nil
}

// runJob is Plan.RunJob plus Plan.Complete for job i, done by hand:
// p.Job → engine.New → System.Run → Kernel().Stats → SetJobResult →
// Complete.
func (b *bench) runJob(tr *tracer, p *dynlb.Plan, i int, root int, req int64) ([]dynlb.Row, error) {
	l := &b.d.layers
	job := tr.begin("bench.job", root, req)
	defer tr.end(job)

	sp := tr.begin("pipeline.job", job, req)
	cfg, st := p.Job(i)
	tr.end(sp)

	sp = tr.begin("engine.new", job, req)
	sys, err := engine.New(cfg, st)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("engine.run", job, req)
	t1 := time.Now()
	res := sys.Run()
	run := time.Since(t1)
	tr.end(sp)

	sp = tr.begin("sim.stats", job, req)
	ks := sys.Kernel().Stats()
	tr.end(sp)
	l.events += ks.Dispatched
	l.inlineWakes += ks.InlineWakes
	l.handoffs += ks.Handoffs
	l.spawns += ks.Spawns
	l.spawnReuses += ks.SpawnReuses
	l.lightSpawns += ks.LightSpawns
	l.overflowPushes += ks.OverflowPushes
	l.runNS += int64(run)
	l.jobMS = append(l.jobMS, ms(run))
	l.joins += res.JoinsDone
	l.oltp += res.OLTPDone
	l.tempIO += res.TempIOPages
	l.deadlocks += res.Deadlocks

	sp = tr.begin("pipeline.set_result", job, req)
	p.SetJobResult(i, res)
	tr.end(sp)

	sp = tr.begin("pipeline.complete", job, req)
	t2 := time.Now()
	rows, err := p.Complete(i)
	l.completeNS += int64(time.Since(t2))
	tr.end(sp)
	if first, n := p.SlotRange(p.SlotOf(i)); i == first+n-1 {
		l.slots++
	}
	return rows, err
}

// measureCodec times the row writers on the workload's rows: each writer
// repeats until it has run for at least 20 ms.
func (b *bench) measureCodec(rows []dynlb.Row) {
	if len(rows) == 0 {
		return
	}
	l := &b.d.layers
	timeRows := func(name string, write func() error) float64 {
		sp := b.tr.begin(name, 0, -1)
		defer b.tr.end(sp)
		t0, reps := time.Now(), 0
		for ; reps < 10 || time.Since(t0) < 20*time.Millisecond; reps++ {
			if err := write(); err != nil {
				b.op(err)
				return 0
			}
		}
		return float64(time.Since(t0)) / float64(reps*len(rows))
	}
	var buf bytes.Buffer
	l.csvNSPerRow = timeRows("codec.write_rows_csv", func() error { buf.Reset(); return dynlb.WriteRowsCSV(&buf, rows) })
	l.jsonNSPerRow = timeRows("codec.write_rows_json", func() error { buf.Reset(); return dynlb.WriteRowsJSON(&buf, rows) })
	sp := b.tr.begin("codec.marshal_row_json", 0, -1)
	total := 0
	for _, r := range rows {
		data, err := dynlb.MarshalRowJSON(r)
		if err != nil {
			b.op(err)
			break
		}
		total += len(data)
	}
	b.tr.end(sp)
	l.rowJSON = float64(total) / float64(len(rows))
}

// checkGolden checks rows, written as CSV, against the header and the
// first len(rows) rows of a golden file: the points (the first four
// columns) always, every byte when exact is set.
func (b *bench) checkGolden(rel string, rows []dynlb.Row, exact bool) error {
	golden, err := os.ReadFile(filepath.Join(b.o.root, rel))
	if err != nil {
		return err
	}
	got, err := csvOf(rows)
	if err != nil {
		return err
	}
	lines := strings.SplitAfter(string(golden), "\n")
	if len(lines) <= len(rows) {
		return fmt.Errorf("%s has %d lines, want at least %d", rel, len(lines), len(rows)+1)
	}
	want := strings.Join(lines[:len(rows)+1], "")
	if !exact {
		return sameLabels(want, string(got))
	}
	if string(got) != want {
		return fmt.Errorf("rows differ from the first %d rows of %s", len(rows), rel)
	}
	b.note("golden check: %d rows match %s byte for byte", len(rows), rel)
	return nil
}

// sameLabels checks that two CSV row sets have the same header and the
// same points — figure, series, x and x label — in the same order.
func sameLabels(want, got string) error {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	if len(w) != len(g) {
		return fmt.Errorf("%d CSV lines, want %d", len(g), len(w))
	}
	if w[0] != g[0] {
		return fmt.Errorf("CSV header %q, want %q", g[0], w[0])
	}
	for i := 1; i < len(w); i++ {
		if labels(w[i]) != labels(g[i]) {
			return fmt.Errorf("line %d has point %q, want %q", i+1, labels(g[i]), labels(w[i]))
		}
	}
	return nil
}

// labels is the figure, series, x and x-label columns of a CSV line.
func labels(line string) string {
	f := strings.SplitN(line, ",", 5)
	return strings.Join(f[:min(4, len(f))], ",")
}

func csvOf(rows []dynlb.Row) ([]byte, error) {
	var buf bytes.Buffer
	err := dynlb.WriteRowsCSV(&buf, rows)
	return buf.Bytes(), err
}

// sameRows reports whether two row sets write the same CSV bytes.
func sameRows(what string, want, got []dynlb.Row) error {
	a, err := csvOf(want)
	if err != nil {
		return err
	}
	c, err := csvOf(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, c) {
		return fmt.Errorf("%s: %d rows differ from the %d expected", what, len(got), len(want))
	}
	return nil
}

func (b *bench) note(format string, args ...any) {
	b.d.notes = append(b.d.notes, fmt.Sprintf(format, args...))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
