package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"dynlb"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := highestPercentile(tc.n); p != 50 && beyond(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", tc.n, p, beyond(tc.n, p))
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %g, want 100", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	if median(nil) != 0 || percentile(nil, 90) != 0 {
		t.Error("empty sample must read 0")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.sweep", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "engine.run", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "engine.run", StartNS: 20, EndNS: 50},         // overlaps span 2
		{ID: 4, Parent: 1, Name: "pipeline.complete", StartNS: 90, EndNS: 120}, // clipped at 100
		{ID: 5, Parent: 3, Name: "sim.stats", StartNS: 40, EndNS: 45},          // grandchild of 1
		{ID: 6, Name: "codec.write_rows_csv", StartNS: 200, EndNS: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 5, 4: 30, 5: 5, 6: 60} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	got := layerSelfMS(spans, 1)
	want := map[string]float64{"bench": 50e-6, "engine": 45e-6, "pipeline": 30e-6, "sim": 5e-6, "codec": 60e-6}
	for layer, w := range want {
		if d := got[layer] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("layer %s self = %g ms, want %g", layer, got[layer], w)
		}
	}
	if len(layerSelfMS(spans, 0)) != 0 {
		t.Error("zero operations must yield no per-operation self times")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("engine.run", 0, 1)
	tr.end(id)
	if id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
}

// TestTracerConcurrent records spans from several goroutines at once, as
// the service-mix clients do; run it with -race.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				root := tr.begin("bench.doc", 0, int64(c))
				tr.end(tr.begin("service.submit", root, int64(c)))
				tr.end(root)
			}
		}()
	}
	wg.Wait()
	if len(tr.spans) != 800 {
		t.Fatalf("%d spans, want 800", len(tr.spans))
	}
	for _, s := range tr.spans {
		if s.EndNS < s.StartNS || (s.Parent != 0 && tr.spans[s.Parent-1].Req != s.Req) {
			t.Fatalf("span %+v is inconsistent", s)
		}
	}
}

// TestPrintedMetricsMatchBenchmarkJSON checks that the untraced run
// prints exactly the end-to-end metrics of BENCHMARK.json and the traced
// run exactly the per-layer ones, with the same units and valid names.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(kind string, printed []metricValue, declared []struct{ Name, Unit string }) {
		units := make(map[string]string)
		for _, m := range declared {
			units[m.Name] = m.Unit
		}
		seen := make(map[string]bool)
		for _, m := range printed {
			if !name.MatchString(m.name) {
				t.Errorf("%s metric %q does not match %s", kind, m.name, name)
			}
			if seen[m.name] {
				t.Errorf("%s metric %q printed twice", kind, m.name)
			}
			seen[m.name] = true
			u, ok := units[m.name]
			switch {
			case !ok:
				t.Errorf("%s metric %q is not in BENCHMARK.json", kind, m.name)
			case u != m.unit:
				t.Errorf("%s metric %q has unit %q, BENCHMARK.json says %q", kind, m.name, m.unit, u)
			}
		}
		for n := range units {
			if !seen[n] {
				t.Errorf("%s metric %q of BENCHMARK.json is never printed", kind, n)
			}
		}
	}
	check("end-to-end", endToEnd(&runData{}), spec.EndToEnd)
	check("per-layer", perLayer(&runData{}), spec.PerLayer)
}

func TestDocStreamDeterministic(t *testing.T) {
	stream := func(seed int64, client int) [][]byte {
		g := newDocStream(seed, client)
		var docs [][]byte
		for i := 0; i < 40; i++ {
			doc, fresh := g.next()
			if fresh != (i%2 == 0) {
				t.Fatalf("document %d: fresh=%v, want fresh and resubmitted to alternate", i, fresh)
			}
			docs = append(docs, doc)
		}
		return docs
	}
	a, b := stream(7, 0), stream(7, 0)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("document %d differs between two streams of seed 7", i)
		}
	}
	if bytes.Equal(stream(8, 0)[0], a[0]) || bytes.Equal(stream(7, 1)[0], a[0]) {
		t.Error("another seed or client must give other documents")
	}
	fresh := make(map[string]int)
	for i, doc := range a {
		if i%2 == 0 {
			if _, dup := fresh[string(doc)]; dup {
				t.Errorf("fresh document %d repeats an earlier one", i)
			}
			fresh[string(doc)] = i
			continue
		}
		j, ok := fresh[string(doc)]
		if !ok {
			t.Errorf("document %d resubmits a document that was never fresh", i)
		} else if i-j > 2*recentFresh {
			t.Errorf("document %d resubmits document %d, older than the %d latest fresh ones", i, j, recentFresh)
		}
	}
}

func TestDocsDecodeToFourJobs(t *testing.T) {
	g := newDocStream(3, 0)
	for i := 0; i < 10; i++ {
		doc, _ := g.next()
		var req dynlb.ExperimentRequest
		dec := json.NewDecoder(bytes.NewReader(doc))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("document %d: %v\n%s", i, err, doc)
		}
		exp, err := req.Experiment()
		if err != nil {
			t.Fatalf("document %d: %v", i, err)
		}
		p, err := exp.Plan()
		if err != nil {
			t.Fatalf("document %d: %v", i, err)
		}
		if p.NumJobs() != docJobs || p.NumRows() != docJobs {
			t.Errorf("document %d has %d jobs and %d rows, want %d", i, p.NumJobs(), p.NumRows(), docJobs)
		}
	}
}

func TestReadSSE(t *testing.T) {
	stream := "event: row\nid: 0\ndata: {\"a\":1}\n\n" +
		"event: row\nid: 1\ndata: {\"a\":2}\n\n" +
		"event: done\ndata: {}\n\n"
	var got []string
	err := readSSE(strings.NewReader(stream), func(event, data string) error {
		got = append(got, event+" "+data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "|") != `row {"a":1}|row {"a":2}` {
		t.Errorf("events = %q", got)
	}
	if err := readSSE(strings.NewReader("event: row\ndata: {}\n\n"), func(string, string) error { return nil }); err == nil {
		t.Error("a stream without its done event must fail")
	}
}

func TestLabels(t *testing.T) {
	if got := labels("6,MIN-IO,10,#PE,961.83,16\n"); got != "6,MIN-IO,10,#PE" {
		t.Errorf("labels = %q", got)
	}
}
