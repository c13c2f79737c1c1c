package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mv2j/internal/trace"
)

func TestSinkDisabledByDefault(t *testing.T) {
	var s Sink
	if s.Recorder() != nil {
		t.Fatal("recorder created with no outputs requested")
	}
	if s.Registry() != nil {
		t.Fatal("registry created with no outputs requested")
	}
	var buf bytes.Buffer
	if err := s.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("idle flush produced output: %q", buf.String())
	}
}

func TestSinkWritesAllArtifacts(t *testing.T) {
	dir := t.TempDir()
	s := Sink{
		TraceOut:   filepath.Join(dir, "t.jsonl"),
		ChromeOut:  filepath.Join(dir, "c.json"),
		MetricsOut: filepath.Join(dir, "m.json"),
		Report:     true,
		PPN:        2,
	}
	rec := s.Recorder()
	if rec == nil {
		t.Fatal("no recorder despite trace outputs")
	}
	if s.ForceRecorder() != rec {
		t.Fatal("ForceRecorder did not return the shared recorder")
	}
	rec.Record(trace.Event{Rank: 0, Kind: trace.KindSend, Peer: 1, Bytes: 8, Start: 0, End: 100})
	rec.Record(trace.Event{Rank: 1, Kind: trace.KindRecv, Peer: 0, Bytes: 8, Start: 0, End: 150})
	reg := s.Registry()
	if reg == nil {
		t.Fatal("no registry despite -metrics-out")
	}
	reg.Add(0, "proc", "msgs_sent", 1)

	var report bytes.Buffer
	if err := s.Flush(&report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "rank") {
		t.Fatalf("report missing rollup table:\n%s", report.String())
	}

	events, dropped, err := trace.ParseJSONL(mustOpen(t, s.TraceOut))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || dropped != 0 {
		t.Fatalf("JSONL artifact: %d events, %d dropped", len(events), dropped)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(mustRead(t, s.ChromeOut), &chrome); err != nil {
		t.Fatalf("chrome artifact: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome artifact has no events")
	}
	var m struct {
		Counters []map[string]any `json:"counters"`
	}
	if err := json.Unmarshal(mustRead(t, s.MetricsOut), &m); err != nil {
		t.Fatalf("metrics artifact: %v", err)
	}
	if len(m.Counters) != 1 {
		t.Fatalf("metrics artifact counters: %+v", m.Counters)
	}
}

// TestReportSaturationSection pins the -report rollup of the
// deterministic backpressure counters: -report alone must create the
// registry, and any flow counter present must render in the
// saturation table.
func TestReportSaturationSection(t *testing.T) {
	s := Sink{Report: true}
	rec := s.Recorder()
	if rec == nil {
		t.Fatal("no recorder despite -report")
	}
	reg := s.Registry()
	if reg == nil {
		t.Fatal("-report alone did not create the registry")
	}
	rec.Record(trace.Event{Rank: 0, Kind: trace.KindSend, Peer: 1, Bytes: 8, Start: 0, End: 100})
	reg.Add(1, "flow", "rnr_parks", 3)
	reg.Add(0, "proc", "msgs_sent", 9) // not a saturation row

	var report bytes.Buffer
	if err := s.Flush(&report); err != nil {
		t.Fatal(err)
	}
	out := report.String()
	for _, want := range []string{"saturation (deterministic)", "rnr_parks"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "msgs_sent") {
		t.Errorf("saturation table leaked non-saturation counter:\n%s", out)
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
