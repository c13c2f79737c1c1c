package omb

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mv2j/internal/difftest"
	"mv2j/internal/faults"
	"mv2j/internal/metrics"
	"mv2j/internal/trace"
)

func ftOpts() Options {
	o := chaosOpts()
	o.MaxSize = 1024
	o.FT = true
	return o
}

// ftConfig builds a 3-rank MVAPICH2-J job with the FT driver engaged
// and the given fault spec attached. Three ranks is the widest shape
// whose recovery artifacts are byte-reproducible (see the determinism
// notes in ftcoll.go / DESIGN.md), so it is the acceptance scenario.
func ftConfig(t *testing.T, ppn int, mode Mode, spec string) Config {
	t.Helper()
	cfg := mv2(1, ppn, mode, ftOpts())
	if spec != "" {
		plan, err := faults.ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		cfg.Core.Faults = plan
	}
	return cfg
}

// The acceptance scenario: an OMB-J allreduce sweep with a rank crash
// injected mid-sweep completes on the shrunken communicator, with
// every row present and elementwise validation (which scales with the
// live membership) passing throughout.
func TestFTAllreduceSurvivesCrash(t *testing.T) {
	cfg := ftConfig(t, 3, ModeBuffer, "crash=2@100us")
	rec := trace.New(0)
	reg := metrics.NewRegistry()
	cfg.Core.Trace = rec
	cfg.Core.Metrics = reg

	rows, err := RunBenchmark("allreduce", cfg)
	if err != nil {
		t.Fatalf("FT allreduce with crash: %v", err)
	}
	if want := len(cfg.Opts.Sizes()); len(rows) != want {
		t.Fatalf("got %d result rows, want %d (one per size)", len(rows), want)
	}
	for _, r := range rows {
		if r.LatencyUs <= 0 {
			t.Fatalf("size %d reported non-positive latency %v", r.Size, r.LatencyUs)
		}
	}

	var recoveries, detects int
	for _, ev := range rec.Events() {
		switch {
		case ev.Kind == trace.KindRecovery && strings.HasPrefix(ev.Detail, "rollback"):
			recoveries++
			if ev.End <= ev.Start {
				t.Fatalf("recovery span %+v has non-positive duration", ev)
			}
		case ev.Kind == trace.KindDetect:
			detects++
		}
	}
	if recoveries == 0 || detects == 0 {
		t.Fatalf("trace missing the recovery story: %d rollback spans, %d detect events", recoveries, detects)
	}

	// The "ft" metrics family carries the same story in counters.
	snap := reg.Snapshot()
	want := map[string]bool{"crashes": false, "recoveries": false, "shrinks": false, "revokes": false}
	for _, row := range snap.Counters {
		if row.Kind == "ft" && row.Value > 0 {
			if _, ok := want[row.Label]; ok {
				want[row.Label] = true
			}
		}
	}
	for label, seen := range want {
		if !seen {
			t.Errorf("metrics family ft/%s never incremented", label)
		}
	}

	// The recovery phase shows up in the rollup breakdown.
	var recoveryPs int64
	for _, ph := range trace.PhasesByRank(rec.Events()) {
		recoveryPs += int64(ph.Recovery)
	}
	if recoveryPs == 0 {
		t.Error("phase rollup attributes zero time to recovery")
	}
}

// Same scenario, same spec, FT off: the sweep must abort exactly as
// any crash does today.
func TestFTAllreduceCrashWithoutFTAborts(t *testing.T) {
	cfg := ftConfig(t, 3, ModeBuffer, "crash=2@100us")
	cfg.Opts.FT = false
	_, err := RunBenchmark("allreduce", cfg)
	if err == nil {
		t.Fatal("crash without -ft completed")
	}
	if !strings.Contains(err.Error(), "crashed") {
		t.Fatalf("abort reason %q does not name the crash", err)
	}
}

// The complete recovered run — trace with virtual timestamps, the full
// metrics registry serialization, and the result rows — is
// byte-identical across same-seed runs.
func TestFTRecoveryArtifactsDeterministic(t *testing.T) {
	run := func() ([]trace.Event, []byte, []Result) {
		cfg := ftConfig(t, 3, ModeBuffer, "crash=2@100us")
		rec := trace.New(0)
		reg := metrics.NewRegistry()
		cfg.Core.Trace = rec
		cfg.Core.Metrics = reg
		rows, err := RunBenchmark("allreduce", cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return rec.Events(), buf.Bytes(), rows
	}
	ev1, met1, rows1 := run()
	ev2, met2, rows2 := run()
	if len(ev1) != len(ev2) {
		t.Fatalf("trace length differs across runs: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("trace diverges at event %d: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
	if !bytes.Equal(met1, met2) {
		t.Fatal("metrics serialization differs across identical runs")
	}
	if len(rows1) != len(rows2) {
		t.Fatalf("row counts differ: %d vs %d", len(rows1), len(rows2))
	}
	for i := range rows1 {
		if rows1[i] != rows2[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, rows1[i], rows2[i])
		}
	}
}

// Chaos soak: a crash layered on 5% packet loss. Timing is not
// compared; completion with full validation is the assertion.
func TestFTChaosCrashUnderLoss(t *testing.T) {
	for _, name := range []string{"allreduce", "bcast", "reduce"} {
		t.Run(name, func(t *testing.T) {
			cfg := ftConfig(t, 4, ModeBuffer, "seed=7,drop=0.05,crash=2@120us")
			reg := metrics.NewRegistry()
			cfg.Core.Metrics = reg
			rows, err := RunBenchmark(name, cfg)
			if err != nil {
				t.Fatalf("FT %s under loss+crash: %v", name, err)
			}
			if want := len(cfg.Opts.Sizes()); len(rows) != want {
				t.Fatalf("got %d rows, want %d", len(rows), want)
			}
			var crashes int64
			for _, row := range reg.Snapshot().Counters {
				if row.Kind == "ft" && row.Label == "crashes" {
					crashes += row.Value
				}
			}
			if crashes != 1 {
				t.Fatalf("ft/crashes = %d, want 1", crashes)
			}
		})
	}
}

// A failure-free FT sweep behaves like the plain driver: full rows, no
// recoveries recorded.
func TestFTNoFailureCleanSweep(t *testing.T) {
	cfg := ftConfig(t, 3, ModeArrays, "")
	rec := trace.New(0)
	cfg.Core.Trace = rec
	rows, err := RunBenchmark("allreduce", cfg)
	if err != nil {
		t.Fatalf("FT allreduce without faults: %v", err)
	}
	if want := len(cfg.Opts.Sizes()); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	// Epoch-closing agreements do appear (they are the exit barrier),
	// but nothing may roll back or shrink.
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindRecovery && !strings.HasPrefix(ev.Detail, "agree") {
			t.Fatalf("failure-free run recorded recovery event %+v", ev)
		}
	}
}

// The FT driver is explicit about what it does not cover.
func TestFTDriverRejections(t *testing.T) {
	if _, err := FTCollectiveLatency("alltoall", ftConfig(t, 3, ModeBuffer, "")); err == nil {
		t.Error("alltoall accepted by the FT driver")
	}
	if _, err := FTCollectiveLatency("allreduce", ftConfig(t, 3, ModeNative, "")); err == nil {
		t.Error("native mode accepted by the FT driver")
	}
}

// TestFTCrashRendezvousTable crashes a rank at several operation
// indices during FT collective sweeps at an eager and a rendezvous
// size. A crash mid-rendezvous leaves CTS and DATA packets in flight
// toward requests a revoke has already failed; they must be dropped,
// not panic the receiver. Every case recovers with validation on and
// reproduces its artifacts byte for byte.
func TestFTCrashRendezvousTable(t *testing.T) {
	shapes := []struct {
		bench string
		ppn   int
	}{{"allreduce", 3}, {"bcast", 4}}
	for _, sh := range shapes {
		for _, op := range []int{1, 5, 10, 20, 40} {
			for _, size := range []int{32 << 10, 512 << 10} {
				sh, spec, size := sh, fmt.Sprintf("crash=2:op%d", op), size
				t.Run(fmt.Sprintf("%s/op%d/%dKiB", sh.bench, op, size>>10), func(t *testing.T) {
					run := func() difftest.Artifacts {
						o := chaosOpts()
						o.MinSize, o.MaxSize = size, size
						o.Iters, o.LargeIters = 24, 10 // enough ops for op40 to fire
						o.Validate, o.FT = true, true
						cfg := mv2(1, sh.ppn, ModeBuffer, o)
						plan, err := faults.ParseSpec(spec)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Core.Faults = plan
						// One slot: RunBenchmark returns rank 0's result
						// rows, which stand in for the receive payloads.
						a, err := difftest.Capture(1, func(rec *trace.Recorder, met *metrics.Registry, a *difftest.Artifacts) error {
							cfg.Core.Trace, cfg.Core.Metrics = rec, met
							rows, err := RunBenchmark(sh.bench, cfg)
							a.Recvs[0] = fmt.Appendf(nil, "%+v", rows)
							return err
						})
						if err != nil {
							t.Fatalf("%s %s at %d B: %v", sh.bench, spec, size, err)
						}
						return a
					}
					first := run()
					if !bytes.Contains(first.Metrics, []byte(`"crashes"`)) {
						t.Errorf("%s never fired", spec)
					}
					difftest.AssertSame(t, "rerun", run(), first)
				})
			}
		}
	}
}
