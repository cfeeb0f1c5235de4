package dynlb

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestCompareResultsHandValues: paired aggregation over hand-made results
// must produce exact means, deltas, improvements and the hand-computed
// paired-t and unpaired half-widths. b is a constant 10% below a, so the
// improvement stream is exactly {10, 10, 10} and the correlation exactly 1.
func TestCompareResultsHandValues(t *testing.T) {
	mk := func(strategy string, rt float64) Results {
		return Results{Strategy: strategy, JoinRT: Summary{MeanMS: rt}}
	}
	runsA := []Results{mk("A", 100), mk("A", 110), mk("A", 120)}
	runsB := []Results{mk("B", 90), mk("B", 99), mk("B", 108)}
	pc, err := CompareResults(runsA, runsB, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if pc.StrategyA != "A" || pc.StrategyB != "B" || pc.Reps != 3 || pc.Conf != 0.95 {
		t.Fatalf("comparison meta wrong: %+v", pc)
	}
	d := pc.JoinRTMS
	if d.A != 110 || d.B != 99 || d.Delta.Mean != -11 {
		t.Errorf("means/delta wrong: %+v", d)
	}
	// Per-pair deltas {-10, -11, -12}: sd 1, t(0.95, 2) = 4.3027.
	const tCrit = 4.302652729911275
	if want := tCrit / math.Sqrt(3); math.Abs(d.Delta.HW-want) > 1e-9 {
		t.Errorf("paired delta HW %v, want %v", d.Delta.HW, want)
	}
	if d.Improv.Mean != 10 || math.Abs(d.Improv.HW) > 1e-9 {
		t.Errorf("improvement %v ±%v, want exactly 10 ±0", d.Improv.Mean, d.Improv.HW)
	}
	// s²A = 100, s²B = 81: unpaired delta HW = t·sqrt(181/3).
	wantUnpaired := tCrit * math.Sqrt(181.0/3)
	if math.Abs(d.UnpairedDeltaHW-wantUnpaired) > 1e-6 {
		t.Errorf("unpaired delta HW %v, want %v", d.UnpairedDeltaHW, wantUnpaired)
	}
	if math.Abs(d.UnpairedImprovHW-100*wantUnpaired/110) > 1e-6 {
		t.Errorf("unpaired improvement HW %v, want %v", d.UnpairedImprovHW, 100*wantUnpaired/110)
	}
	if math.Abs(d.Corr-1) > 1e-12 {
		t.Errorf("correlation %v, want 1", d.Corr)
	}
	if d.Delta.HW >= d.UnpairedDeltaHW || d.Improv.HW >= d.UnpairedImprovHW {
		t.Errorf("paired half-widths not tighter: %+v", d)
	}
}

func TestSplitCompare(t *testing.T) {
	a, b, err := SplitCompare(" psu-opt+RANDOM , OPT-IO-CPU ")
	if err != nil || a != "psu-opt+RANDOM" || b != "OPT-IO-CPU" {
		t.Errorf("SplitCompare = %q, %q, %v", a, b, err)
	}
	for _, bad := range []string{"", "one", "a,b,c", ",b", "a,", " , "} {
		if _, _, err := SplitCompare(bad); err == nil {
			t.Errorf("SplitCompare(%q) accepted", bad)
		}
	}
}

func TestCompareResultsRejects(t *testing.T) {
	one := []Results{{Strategy: "A"}}
	if _, err := CompareResults(nil, nil, 0.95); err == nil {
		t.Error("empty pair list accepted")
	}
	if _, err := CompareResults(one, []Results{{}, {}}, 0.95); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := CompareResults(one, one, 1.5); err == nil {
		t.Error("confidence 1.5 accepted")
	}
}

// TestCompareSharesSeeds: the A side of a paired comparison must be
// bit-identical to a replicated run of strategy A on the same seed list —
// the pairing adds B runs on the same seeds, it must not perturb A's
// stream. And the paired metric means must agree with the per-strategy
// replication aggregates.
func TestCompareSharesSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ctx := context.Background()
	cfg := quickConfig()
	a, b := MustStrategy("psu-opt+RANDOM"), MustStrategy("OPT-IO-CPU")
	seeds := ReplicateSeeds(cfg.Seed, 3)
	cmpRows, err := NewExperiment(Sweep{Base: cfg},
		WithCompare(a, b), WithSeeds(seeds...), WithRuns()).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	repRows, err := NewExperiment(Sweep{Base: cfg, Strategies: []Strategy{a}},
		WithSeeds(seeds...), WithRuns()).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cmp, repA := cmpRows[0], repRows[0]
	// The compared row's raw runs interleave the pair per seed: {A, B}.
	if len(cmp.Runs) != 2*len(seeds) {
		t.Fatalf("compared row carries %d runs, want %d", len(cmp.Runs), 2*len(seeds))
	}
	runsA := make([]Results, len(seeds))
	for k := range seeds {
		runsA[k] = cmp.Runs[2*k]
	}
	if !reflect.DeepEqual(runsA, repA.Runs) {
		t.Errorf("A side of the comparison differs from the replicated run of A on the same seeds")
	}
	meanA, aggA := AggregateResults(runsA, DefaultConfidence)
	if !reflect.DeepEqual(meanA, repA.Res) || !reflect.DeepEqual(aggA, *repA.Rep) {
		t.Errorf("A-side aggregates differ from the replicated run of A:\ncmp: %+v\nrep: %+v", aggA, *repA.Rep)
	}
	pair := cmp.Cmp
	if pair.JoinRTMS.A != repA.Rep.JoinRTMS.Mean || pair.JoinRTMS.B != cmp.Rep.JoinRTMS.Mean {
		t.Errorf("paired means diverge from per-strategy replication: %+v vs %v/%v",
			pair.JoinRTMS, repA.Rep.JoinRTMS.Mean, cmp.Rep.JoinRTMS.Mean)
	}
	if pair.StrategyA != "psu-opt+RANDOM" || pair.StrategyB != "OPT-IO-CPU" {
		t.Errorf("strategy names: %q vs %q", pair.StrategyA, pair.StrategyB)
	}
	wantDelta := pair.JoinRTMS.B - pair.JoinRTMS.A
	if math.Abs(pair.JoinRTMS.Delta.Mean-wantDelta) > 1e-9 {
		t.Errorf("delta mean %v != B−A %v", pair.JoinRTMS.Delta.Mean, wantDelta)
	}
}

// TestCompareSinglePair: an unreplicated comparison runs one pair on the
// base seed — means present, all half-widths zero, no replication block —
// and a single-point sweep labels its row "B vs A".
func TestCompareSinglePair(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rows, err := NewExperiment(Sweep{Base: quickConfig()},
		WithCompare(MustStrategy("psu-opt+RANDOM"), MustStrategy("OPT-IO-CPU")),
		WithRuns()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Cmp == nil || r.Cmp.Reps != 1 || len(r.Runs) != 2 || r.Rep != nil {
		t.Fatalf("single comparison shape: Cmp=%+v Rep=%+v runs=%d", r.Cmp, r.Rep, len(r.Runs))
	}
	if r.Series != "OPT-IO-CPU vs psu-opt+RANDOM" {
		t.Errorf("compared single-point series = %q", r.Series)
	}
	d := r.Cmp.JoinRTMS
	if d.A <= 0 || d.B <= 0 {
		t.Errorf("missing response times: %+v", d)
	}
	if d.Delta.HW != 0 || d.Improv.HW != 0 || d.UnpairedDeltaHW != 0 {
		t.Errorf("single pair produced half-widths: %+v", d)
	}
}

func TestCompareFiguresAreKnown(t *testing.T) {
	known := map[string]bool{}
	for _, f := range Figures() {
		known[f] = true
	}
	for _, f := range CompareFigures() {
		if !known[f] {
			t.Errorf("CompareFigures lists unknown figure %q", f)
		}
	}
}

// The Fig. 8 paired-comparison sweep: Fig. 8's workload axis at quick
// scale, psu-opt+RANDOM (the paper's baseline) vs OPT-IO-CPU on three
// shared replicate seeds. Three replicates, not two: at n=2 the sample
// correlation of any non-constant pair is exactly ±1, so the
// paired-vs-unpaired ordering would be near-tautological and the golden's
// rt_corr values degenerate; n=3 makes both informative.
const (
	fig8StratA = "psu-opt+RANDOM"
	fig8StratB = "OPT-IO-CPU"
	fig8Reps   = 3
)

// fig8Compared holds the Fig. 8 compared sweep, simulated once per test
// binary at WithWorkers(1) and once at WithWorkers(0) (NumCPU). The golden
// locks the parallel rows; the pairing test checks the two runs agree and
// asserts the variance reduction on them.
var fig8Compared struct {
	once     sync.Once
	seq, par []Row
	err      error
}

func fig8ComparedRows(t *testing.T) (seq, par []Row) {
	t.Helper()
	f := &fig8Compared
	f.once.Do(func() {
		run := func(workers int) ([]Row, error) {
			return NewExperiment(Figure("8"),
				WithScale(ScaleQuick), WithSeed(1),
				WithCompare(MustStrategy(fig8StratA), MustStrategy(fig8StratB)),
				WithReps(fig8Reps), WithWorkers(workers),
			).Run(context.Background())
		}
		if f.seq, f.err = run(1); f.err == nil {
			f.par, f.err = run(0)
		}
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.seq, f.par
}

// TestRunFigureComparedDeterminismAndPairing is the acceptance check of the
// comparison subsystem on a real figure sweep (the shared Fig. 8 compared
// sweep): compared rows must be bit-identical at one worker and at NumCPU
// workers, and — because both strategies of every replicate share their
// seed — the paired confidence half-widths on the delta and the
// %-improvement must be strictly tighter than the unpaired
// (independent-seed) half-widths on the same replicate count.
func TestRunFigureComparedDeterminismAndPairing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation sweep")
	}
	seq, par := fig8ComparedRows(t)
	if len(seq) != len(par) || len(seq) == 0 {
		t.Fatalf("row counts: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Fatalf("row %d differs between workers=1 and workers=NumCPU:\nseq: %+v\npar: %+v", i, seq[i], par[i])
		}
	}
	for i, r := range par {
		if r.Cmp == nil {
			t.Fatalf("row %d missing paired aggregates", i)
		}
		c := r.Cmp
		if c.Reps != fig8Reps || c.StrategyA != fig8StratA || c.StrategyB != fig8StratB {
			t.Fatalf("row %d comparison meta: %+v", i, c)
		}
		if r.JoinRTMS != c.JoinRTMS.B {
			t.Errorf("row %d scalar RT %v is not strategy B's mean %v", i, r.JoinRTMS, c.JoinRTMS.B)
		}
		if r.Rep == nil || r.Rep.Reps != fig8Reps {
			t.Errorf("row %d missing strategy B replication aggregates", i)
		}
		// The variance-reduction claim: common random numbers make the
		// paired intervals strictly tighter than independent seeds would.
		if c.JoinRTMS.Improv.HW >= c.JoinRTMS.UnpairedImprovHW {
			t.Errorf("row %d (x=%g): paired improvement HW %.3f%% not strictly below unpaired %.3f%% (corr %.3f)",
				i, r.X, c.JoinRTMS.Improv.HW, c.JoinRTMS.UnpairedImprovHW, c.JoinRTMS.Corr)
		}
		if c.JoinRTMS.Delta.HW >= c.JoinRTMS.UnpairedDeltaHW {
			t.Errorf("row %d (x=%g): paired delta HW %.3f not strictly below unpaired %.3f",
				i, r.X, c.JoinRTMS.Delta.HW, c.JoinRTMS.UnpairedDeltaHW)
		}
		if c.JoinRTMS.Corr <= 0 {
			t.Errorf("row %d: non-positive replicate correlation %.3f — common random numbers not biting", i, c.JoinRTMS.Corr)
		}
	}
}

// TestWriteRowsCSVComparisonColumns: rows carrying paired aggregates gain
// the comparison columns; rows without stay blank in them; uncompared
// output keeps the original header (golden compatibility).
func TestWriteRowsCSVComparisonColumns(t *testing.T) {
	pc := PairedComparison{
		StrategyA: "A", StrategyB: "B", Reps: 3, Conf: 0.95,
		JoinRTMS: DeltaCI{
			A: 110, B: 99,
			Delta:            MeanCI{Mean: -11, HW: 2.5},
			Improv:           MeanCI{Mean: 10, HW: 0.5},
			UnpairedDeltaHW:  33.4,
			UnpairedImprovHW: 30.4,
			Corr:             0.99,
		},
	}
	rows := []Row{
		{Figure: "8", Series: "60 PE", X: 1, XLabel: "selectivity%", JoinRTMS: 99, Cmp: &pc},
		{Figure: "8", Series: "analytic", X: 1, XLabel: "selectivity%", JoinRTMS: 1},
	}
	var buf bytes.Buffer
	if err := WriteRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("line count %d: %q", len(lines), buf.String())
	}
	header := lines[0]
	for _, col := range []string{"strategy_a", "strategy_b", "rt_delta_ms", "rt_improv_pct", "rt_unpaired_improv_hw_pct", "rt_corr"} {
		if !strings.Contains(header, col) {
			t.Errorf("header missing %q: %s", col, header)
		}
	}
	if !strings.Contains(lines[1], ",A,B,110.00,99.00,-11.00,2.50,10.000,0.500,30.400,0.9900") {
		t.Errorf("compared row lacks comparison cells: %s", lines[1])
	}
	if !strings.HasSuffix(lines[2], ",,,,,,,,,,") {
		t.Errorf("uncompared row should have blank comparison cells: %s", lines[2])
	}

	// Without any Cmp the header must not change.
	buf.Reset()
	if err := WriteRowsCSV(&buf, rows[1:]); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "strategy_a") {
		t.Errorf("uncompared output grew comparison columns: %s", buf.String())
	}
}
