// Package obs wires the observability layer (internal/trace,
// internal/metrics) to command-line programs: one flag set, shared by
// ombj and mv2jrun, that selects which artifacts a run exports and
// writes them after the job completes. Everything exported is a pure
// function of the virtual-time execution, so artifacts are
// byte-identical across runs of the same configuration and seed.
package obs

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mv2j/internal/metrics"
	"mv2j/internal/trace"
)

// Sink bundles the observability outputs a CLI run can request.
type Sink struct {
	TraceOut   string
	ChromeOut  string
	MetricsOut string
	Report     bool
	// PPN is the ranks-per-node of the (block-mapped) job; the Chrome
	// exporter maps node -> pid and rank -> tid with it.
	PPN int

	rec *trace.Recorder
	reg *metrics.Registry
}

// AddFlags registers the shared observability flags on the default
// flag set.
func (s *Sink) AddFlags() {
	flag.StringVar(&s.TraceOut, "trace-out", "", "write the event trace as JSONL to this file")
	flag.StringVar(&s.ChromeOut, "chrome-out", "", "write the event trace as Chrome trace_event JSON (open in chrome://tracing or ui.perfetto.dev)")
	flag.StringVar(&s.MetricsOut, "metrics-out", "", "write aggregated metrics (counters, gauges, log2-bucket histograms) as JSON")
	flag.BoolVar(&s.Report, "report", false, "print per-rank rollups and the protocol-phase breakdown after the run")
}

// Recorder returns the trace recorder to attach to the job, creating
// it if any trace-consuming output was requested; nil otherwise.
func (s *Sink) Recorder() *trace.Recorder {
	if s.rec == nil && (s.TraceOut != "" || s.ChromeOut != "" || s.Report) {
		s.rec = trace.New(0)
	}
	return s.rec
}

// ForceRecorder creates the recorder regardless of which outputs were
// requested — for callers with their own trace-consuming feature
// (mv2jrun -trace) that must share one recorder with the sink.
func (s *Sink) ForceRecorder() *trace.Recorder {
	if s.rec == nil {
		s.rec = trace.New(0)
	}
	return s.rec
}

// Registry returns the metrics registry to attach, creating it if
// -metrics-out or -report was requested (the report rolls up the
// deterministic flow-control stall counters); nil otherwise.
func (s *Sink) Registry() *metrics.Registry {
	if s.reg == nil && (s.MetricsOut != "" || s.Report) {
		s.reg = metrics.NewRegistry()
	}
	return s.reg
}

// Flush writes every requested artifact. The -report text goes to w;
// file artifacts go to their configured paths.
func (s *Sink) Flush(w io.Writer) error {
	if s.rec != nil && s.TraceOut != "" {
		if err := writeFile(s.TraceOut, s.rec.WriteJSONL); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	if s.rec != nil && s.ChromeOut != "" {
		ppn := s.PPN
		if ppn < 1 {
			ppn = 1
		}
		write := func(f io.Writer) error {
			return s.rec.WriteChromeTrace(f, trace.ChromeOptions{
				NodeOf: func(rank int) int { return rank / ppn },
			})
		}
		if err := writeFile(s.ChromeOut, write); err != nil {
			return fmt.Errorf("chrome-out: %w", err)
		}
	}
	if s.reg != nil && s.MetricsOut != "" {
		if err := writeFile(s.MetricsOut, s.reg.WriteJSON); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	if s.Report && s.rec != nil {
		if err := s.rec.WriteReport(w); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	if s.Report && s.reg != nil {
		if err := writeSaturation(w, s.reg); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	return nil
}

// writeSaturation appends the deterministic backpressure counters to
// the report: the per-rank flow-control stalls. Every counter is
// charged on the virtual timeline, so the table is byte-identical
// across runs (and absent entirely when no sender ever stalled).
func writeSaturation(w io.Writer, reg *metrics.Registry) error {
	var rows []metrics.ScalarSnap
	for _, c := range reg.Snapshot().Counters {
		if c.Kind == "flow" {
			rows = append(rows, c)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "\nsaturation (deterministic)\n%6s  %-6s %-22s %12s\n",
		"rank", "kind", "label", "value"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%6d  %-6s %-22s %12d\n",
			r.Rank, r.Kind, r.Label, r.Value); err != nil {
			return err
		}
	}
	return nil
}

// writeFile streams one artifact to path ("-" means stdout).
func writeFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
