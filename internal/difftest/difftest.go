// Package difftest is the shared harness of the differential tests:
// it captures everything a simulated run produces that the
// determinism contract covers — per-rank receive payloads, per-rank
// final virtual clocks, the trace JSONL and the metrics JSON — and
// compares two captures byte for byte. A differential runs one
// workload under two configurations that may differ only in host
// behaviour (framed vs direct datapath, engine width, thread level,
// flow control below its limit) and requires identical artifacts.
//
// The package depends on trace, metrics and vtime only, so the tests
// of every layer above them can use it without an import cycle.
// Host-side counters are layer-specific and stay with the callers.
package difftest

import (
	"bytes"
	"testing"

	"mv2j/internal/metrics"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// Artifacts is the deterministic surface of one run.
type Artifacts struct {
	Recvs   [][]byte     // per-rank payload bytes the workload chose to keep
	Clocks  []vtime.Time // per-rank final virtual clock
	Trace   []byte       // trace JSONL
	Metrics []byte       // metrics JSON
}

// Capture runs one workload of the given rank count under a fresh
// trace recorder and metrics registry and serialises both. run must
// install rec and met on the world it drives, execute it, and fill
// the per-rank slots of a.
func Capture(ranks int, run func(rec *trace.Recorder, met *metrics.Registry, a *Artifacts) error) (Artifacts, error) {
	rec := trace.New(0)
	met := metrics.NewRegistry()
	a := Artifacts{Recvs: make([][]byte, ranks), Clocks: make([]vtime.Time, ranks)}
	if err := run(rec, met, &a); err != nil {
		return a, err
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		return a, err
	}
	a.Trace = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := met.WriteJSON(&buf); err != nil {
		return a, err
	}
	a.Metrics = buf.Bytes()
	return a, nil
}

// AssertSame reports every artifact on which a and b differ.
func AssertSame(t testing.TB, label string, a, b Artifacts) {
	t.Helper()
	if len(a.Recvs) != len(b.Recvs) {
		t.Errorf("%s: %d vs %d ranks", label, len(a.Recvs), len(b.Recvs))
		return
	}
	for r := range a.Recvs {
		if !bytes.Equal(a.Recvs[r], b.Recvs[r]) {
			t.Errorf("%s: rank %d receive payloads differ", label, r)
		}
		if a.Clocks[r] != b.Clocks[r] {
			t.Errorf("%s: rank %d final clock %d vs %d", label, r, a.Clocks[r], b.Clocks[r])
		}
	}
	if !bytes.Equal(a.Trace, b.Trace) {
		t.Errorf("%s: trace JSONL differs", label)
	}
	if !bytes.Equal(a.Metrics, b.Metrics) {
		t.Errorf("%s: metrics JSON differs", label)
	}
}
