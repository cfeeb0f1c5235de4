package engine

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynlb/internal/config"
	"dynlb/internal/core"
	"dynlb/internal/sim"
)

var updateFingerprint = flag.Bool("update", false, "rewrite testdata/fingerprint.txt from the current engine")

// fingerprintCase is one engine configuration whose full Results and exact
// kernel event count are pinned by testdata/fingerprint.txt, plus a check
// that the run really exercises the code path it is in the matrix for.
type fingerprintCase struct {
	name     string
	strategy string
	cfg      func(t *testing.T) config.Config
	covers   func(s *System, res Results) error
}

// fingerprintCases covers what the figure goldens leave unpinned: the
// skew-weighted redistribution split, every fault kind, OLTP on the B nodes
// (dirty evictions, hence background page writes), a memory-starved join
// (steal handlers and temp-file flushes) and a burst load profile. The two
// static-placement crash instants land inside running scans, so both the
// mid-scan crash exit and the host-down-before-start exit of a scan run;
// the pe=1 case also crashes a host while a start message is in flight.
func fingerprintCases() []fingerprintCase {
	withFaults := func(spec string) func(t *testing.T) config.Config {
		return func(t *testing.T) config.Config {
			cfg := faultCfg()
			cfg.Faults = mustFaults(t, spec)
			return cfg
		}
	}
	aborted := func(_ *System, res Results) error {
		if res.Aborts == 0 {
			return fmt.Errorf("no attempt aborted")
		}
		return nil
	}
	return []fingerprintCase{
		{
			name: "joins", strategy: "OPT-IO-CPU",
			cfg: func(*testing.T) config.Config { return quickCfg() },
		},
		{
			name: "redistribution-skew", strategy: "pmu-cpu+LUM",
			cfg: func(*testing.T) config.Config {
				cfg := quickCfg()
				cfg.JoinQPSPerPE = 0.2
				cfg.RedistributionSkew = 0.8
				return cfg
			},
		},
		{
			name: "crash", strategy: "OPT-IO-CPU",
			cfg: withFaults("crash(pe=3,at=2s,down=3s)"),
		},
		{
			name: "crash-static", strategy: "psu-opt+RANDOM",
			cfg:    withFaults("crash(pe=5,at=3.1s,down=2s)"),
			covers: aborted,
		},
		{
			name: "crash-a-node", strategy: "psu-opt+RANDOM",
			cfg:    withFaults("crash(pe=1,at=2378ms,down=2s)"),
			covers: aborted,
		},
		{
			name: "slowdisk", strategy: "OPT-IO-CPU",
			cfg: withFaults("slowdisk(pe=2,at=1s,for=4s,factor=6)"),
		},
		{
			name: "straggler", strategy: "pmu-cpu+LUM",
			cfg: withFaults("straggler(pe=1,at=1s,for=0s,factor=3)"),
		},
		{
			name: "oltp-b-nodes", strategy: "OPT-IO-CPU",
			cfg: func(*testing.T) config.Config {
				cfg := quickCfg()
				cfg.OLTP.Placement = config.OLTPOnBNode
				cfg.OLTP.TPSPerNode = 60
				cfg.BufferPages = 200
				return cfg
			},
			covers: func(s *System, _ Results) error {
				var dirty int64
				for _, pe := range s.pes {
					dirty += pe.buf.DirtyEvictions()
				}
				if dirty == 0 {
					return fmt.Errorf("no dirty eviction, so no background page write")
				}
				return nil
			},
		},
		{
			name: "memory-starved", strategy: "OPT-IO-CPU",
			cfg: func(*testing.T) config.Config {
				cfg := quickCfg()
				cfg.BufferPages = 60
				cfg.JoinQPSPerPE = 0.2
				cfg.OLTP.Placement = config.OLTPOnANode
				cfg.OLTP.TPSPerNode = 60
				return cfg
			},
			covers: func(_ *System, res Results) error {
				if res.MemSteals == 0 || res.TempIOPages == 0 {
					return fmt.Errorf("steals %d, temp pages %d: join memory never stolen", res.MemSteals, res.TempIOPages)
				}
				return nil
			},
		},
		{
			name: "burst", strategy: "OPT-IO-CPU",
			cfg: func(t *testing.T) config.Config {
				cfg := quickCfg()
				prof, err := config.ParseProfile("flash:start=2s,dur=3s,factor=4,skew=1.5")
				if err != nil {
					t.Fatal(err)
				}
				cfg.Profile = prof
				cfg.MetricsWindow = sim.Second
				return cfg
			},
		},
	}
}

// fingerprint digests a run: the full Results (every field, windows
// included; %#v prints floats in their shortest round-trip form) and the
// exact number of kernel events dispatched.
func fingerprint(res Results, st sim.KernelStats) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", res)))
	return fmt.Sprintf("results=%x events=%d", sum[:12], st.Dispatched)
}

// TestEngineFingerprint pins the engine's simulation outcome bit for bit on
// a matrix of configurations the figure goldens do not cover. Changes to
// how processes are scheduled (blocking processes, light processes,
// continuation helpers) must leave every line unchanged. Regenerate with
// -update only for a deliberate model change.
func TestEngineFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix in -short mode")
	}
	path := filepath.Join("testdata", "fingerprint.txt")
	var got []string
	for _, c := range fingerprintCases() {
		s := MustNew(c.cfg(t), core.MustByName(c.strategy))
		res := s.Run()
		if c.covers != nil {
			if err := c.covers(s, res); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
		got = append(got, c.name+" "+fingerprint(res, s.Kernel().Stats()))
	}
	if *updateFingerprint {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, the matrix %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("fingerprint changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
