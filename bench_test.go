package dynlb

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Fig. 1a-c and Fig. 5-9), each measuring a representative configuration
// point per series at quick scale and reporting the paper's metrics
// (response time, achieved degree, utilizations) via b.ReportMetric. The
// full parameter sweeps behind the figures are regenerated by
// cmd/experiments (same code path, an Experiment over a Figure).
//
// Absolute times are not expected to match the 1995 testbed; the shapes —
// who wins, by what factor, where the crossovers fall — are recorded
// against the paper in EXPERIMENTS.md.

import (
	"fmt"
	"testing"

	"dynlb/internal/config"
	"dynlb/internal/engine"
)

// benchRun executes cfg/strategy once per b.N iteration (each with a fresh
// seed) and reports mean join response time, degree and CPU utilization.
func benchRun(b *testing.B, cfg Config, strategyName string) {
	b.Helper()
	st := MustStrategy(strategyName)
	var rt, deg, cpu, temp float64
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		sys, err := engine.New(c, st)
		if err != nil {
			b.Fatal(err)
		}
		res := sys.Run()
		rt += res.JoinRT.MeanMS
		deg += res.AvgJoinDegree
		cpu += res.CPUUtil
		temp += float64(res.TempIOPages)
	}
	n := float64(b.N)
	b.ReportMetric(rt/n, "msRT")
	b.ReportMetric(deg/n, "degree")
	b.ReportMetric(100*cpu/n, "cpu%")
	b.ReportMetric(temp/n, "tempIO")
}

func quickWindows(cfg *Config) {
	cfg.Warmup = Seconds(2)
	cfg.MeasureTime = Seconds(8)
}

// BenchmarkFig1a regenerates the single-user response-time curve R(p):
// falling to an optimum, rising beyond it (startup/communication overhead).
func BenchmarkFig1a(b *testing.B) {
	for _, p := range []int{2, 8, 24, 40} {
		b.Run(fmt.Sprintf("degree=%d", p), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NPE = 40
			cfg.JoinQPSPerPE = 0 // single-user
			quickWindows(&cfg)
			st, err := FixedDegree(p, "RANDOM")
			if err != nil {
				b.Fatal(err)
			}
			var rt float64
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Seed = int64(i + 1)
				sys, err := engine.New(c, st)
				if err != nil {
					b.Fatal(err)
				}
				rt += sys.Run().JoinRT.MeanMS
			}
			b.ReportMetric(rt/float64(b.N), "msRT")
		})
	}
}

// BenchmarkFig1b sweeps the degree under CPU contention: the optimum lies
// below the single-user optimum.
func BenchmarkFig1b(b *testing.B) {
	for _, p := range []int{4, 12, 24, 40} {
		b.Run(fmt.Sprintf("degree=%d", p), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NPE = 40
			cfg.JoinQPSPerPE = 0.3
			quickWindows(&cfg)
			st, err := FixedDegree(p, "RANDOM")
			if err != nil {
				b.Fatal(err)
			}
			var rt float64
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Seed = int64(i + 1)
				sys, err := engine.New(c, st)
				if err != nil {
					b.Fatal(err)
				}
				rt += sys.Run().JoinRT.MeanMS
			}
			b.ReportMetric(rt/float64(b.N), "msRT")
		})
	}
}

// BenchmarkFig1c sweeps the degree under a memory/disk bottleneck: the
// optimum lies above the single-user optimum (spreading shrinks per-node
// memory requirements).
func BenchmarkFig1c(b *testing.B) {
	for _, p := range []int{4, 12, 24, 40} {
		b.Run(fmt.Sprintf("degree=%d", p), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NPE = 40
			cfg.BufferPages = 5
			cfg.DisksPerPE = 1
			cfg.JoinQPSPerPE = 0.05
			quickWindows(&cfg)
			st, err := FixedDegree(p, "RANDOM")
			if err != nil {
				b.Fatal(err)
			}
			var rt float64
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Seed = int64(i + 1)
				sys, err := engine.New(c, st)
				if err != nil {
					b.Fatal(err)
				}
				rt += sys.Run().JoinRT.MeanMS
			}
			b.ReportMetric(rt/float64(b.N), "msRT")
		})
	}
}

// BenchmarkFig5 compares the static strategies at 40 PEs under the
// homogeneous multi-user workload (0.25 QPS/PE, 1% selectivity).
func BenchmarkFig5(b *testing.B) {
	for _, name := range []string{
		"psu-noIO+RANDOM", "psu-noIO+LUC", "psu-noIO+LUM",
		"psu-opt+RANDOM", "psu-opt+LUC", "psu-opt+LUM",
	} {
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NPE = 40
			cfg.JoinQPSPerPE = 0.25
			quickWindows(&cfg)
			benchRun(b, cfg, name)
		})
	}
}

// BenchmarkFig6 compares the dynamic strategies at 80 PEs, where the paper
// separates the CPU-aware (pmu-cpu, OPT-IO-CPU) from the CPU-blind
// (MIN-IO-SUOPT) policies.
func BenchmarkFig6(b *testing.B) {
	for _, name := range []string{
		"MIN-IO", "MIN-IO-SUOPT", "pmu-cpu+RANDOM", "pmu-cpu+LUM", "OPT-IO-CPU",
	} {
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NPE = 80
			cfg.JoinQPSPerPE = 0.25
			quickWindows(&cfg)
			benchRun(b, cfg, name)
		})
	}
}

// BenchmarkFig7 runs the memory-bound environment (one tenth the memory,
// one disk per PE) at 80 PEs and 0.025 QPS/PE.
func BenchmarkFig7(b *testing.B) {
	for _, name := range []string{"pmu-cpu+LUM", "MIN-IO-SUOPT"} {
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NPE = 80
			cfg.BufferPages = 5
			cfg.DisksPerPE = 1
			cfg.JoinQPSPerPE = 0.025
			quickWindows(&cfg)
			benchRun(b, cfg, name)
		})
	}
}

// BenchmarkFig8 measures the relative improvement of the dynamic strategies
// over psu-opt+RANDOM at the smallest and largest join complexity.
func BenchmarkFig8(b *testing.B) {
	for _, sel := range []float64{0.001, 0.05} {
		rate := 0.9
		if sel == 0.05 {
			rate = 0.065
		}
		for _, name := range []string{"psu-opt+RANDOM", "psu-noIO+LUM", "MIN-IO-SUOPT", "OPT-IO-CPU"} {
			b.Run(fmt.Sprintf("sel=%g%%/%s", sel*100, name), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.NPE = 60
				cfg.ScanSelectivity = sel
				cfg.JoinQPSPerPE = rate
				quickWindows(&cfg)
				benchRun(b, cfg, name)
			})
		}
	}
}

// BenchmarkFig9a: heterogeneous workload with OLTP on the A nodes (20% of
// PEs), joins at 0.075 QPS/PE, 5 disks per PE.
func BenchmarkFig9a(b *testing.B) {
	benchFig9(b, config.OLTPOnANode)
}

// BenchmarkFig9b: as Fig. 9a with OLTP on the B nodes (80% of PEs; four
// times the OLTP throughput).
func BenchmarkFig9b(b *testing.B) {
	benchFig9(b, config.OLTPOnBNode)
}

func benchFig9(b *testing.B, placement OLTPPlacement) {
	for _, name := range []string{
		"psu-opt+RANDOM", "psu-noIO+RANDOM", "psu-noIO+LUM", "pmu-cpu+LUM", "OPT-IO-CPU",
	} {
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NPE = 40
			cfg.DisksPerPE = 5
			cfg.JoinQPSPerPE = 0.075
			cfg.OLTP.Placement = placement
			cfg.OLTP.TPSPerNode = 100
			quickWindows(&cfg)
			benchRun(b, cfg, name)
		})
	}
}

// BenchmarkAblationAdaptiveBump isolates the control node's adaptive
// information adjustment (Section 3.2): without it, consecutive decisions
// between utilization reports herd onto the same nodes.
func BenchmarkAblationAdaptiveBump(b *testing.B) {
	for _, adaptive := range []bool{true, false} {
		b.Run(fmt.Sprintf("adaptive=%v", adaptive), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NPE = 40
			cfg.JoinQPSPerPE = 0.25
			cfg.AdaptiveBump = adaptive
			quickWindows(&cfg)
			benchRun(b, cfg, "pmu-cpu+LUM")
		})
	}
}

// BenchmarkAblationMemAdmission isolates the query-atomic memory admission
// under the memory-bound configuration.
func BenchmarkAblationMemAdmission(b *testing.B) {
	for _, frac := range []float64{0.9, 0} {
		b.Run(fmt.Sprintf("admit=%.1f", frac), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NPE = 40
			cfg.BufferPages = 5
			cfg.DisksPerPE = 1
			cfg.JoinQPSPerPE = 0.05
			cfg.MemAdmitFrac = frac
			quickWindows(&cfg)
			benchRun(b, cfg, "pmu-cpu+LUM")
		})
	}
}

// BenchmarkAblationIntegratedVsIsolated contrasts the integrated OPT-IO-CPU
// against the isolated pmu-cpu+LUM on the Fig. 9a workload, where the paper
// demonstrates why the two decisions must be coupled.
func BenchmarkAblationIntegratedVsIsolated(b *testing.B) {
	for _, name := range []string{"OPT-IO-CPU", "pmu-cpu+LUM"} {
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NPE = 10
			cfg.DisksPerPE = 5
			cfg.JoinQPSPerPE = 0.075
			cfg.OLTP.Placement = config.OLTPOnANode
			cfg.OLTP.TPSPerNode = 100
			quickWindows(&cfg)
			benchRun(b, cfg, name)
		})
	}
}

// BenchmarkAblationRedistributionSkew measures the cost of partitioning
// skew (the paper's Section 7 outlook: skew handling in multi-user mode):
// with Zipf-like shares the largest subjoin gates the query.
func BenchmarkAblationRedistributionSkew(b *testing.B) {
	for _, skew := range []float64{0, 0.5, 1.0} {
		b.Run(fmt.Sprintf("skew=%.1f", skew), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NPE = 40
			cfg.JoinQPSPerPE = 0.15
			cfg.RedistributionSkew = skew
			quickWindows(&cfg)
			benchRun(b, cfg, "pmu-cpu+LUM")
		})
	}
}

// BenchmarkKernelThroughput measures raw simulator performance: simulated
// events per wall second for a mid-size multi-user run.
func BenchmarkKernelThroughput(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NPE = 20
	cfg.JoinQPSPerPE = 0.25
	quickWindows(&cfg)
	st := MustStrategy("OPT-IO-CPU")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Seed = int64(i + 1)
		sys, err := engine.New(c, st)
		if err != nil {
			b.Fatal(err)
		}
		sys.Run()
	}
}
