package metrics

import (
	"flag"
	"path/filepath"
	"strings"
)

// Flags carries the observability command-line surface of
// cmd/experiments, which exports each grid's cells through it.
type Flags struct {
	MetricsOut  string
	TraceOut    string
	SampleEvery int64
}

// DefaultSampleEvery is the sampling period used when -metrics-out is
// given without an explicit -sample-every.
const DefaultSampleEvery = 4096

// BindFlags registers the observability flags on fs.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write sampled metric series (and any recorded events) as JSON-lines to this file")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the event trace in Chrome trace_event format (Perfetto-loadable) to this file")
	fs.Int64Var(&f.SampleEvery, "sample-every", 0, "sampling period in simulated cycles (default 4096 when -metrics-out is set)")
	return f
}

// Options resolves the flags into simulation options: -trace-out turns on
// the event trace, -metrics-out turns on sampling (defaulting the period),
// and an explicit -sample-every turns on sampling even when the series are
// only consumed through a -json blob.
func (f *Flags) Options() Options {
	o := Options{SampleEvery: f.SampleEvery, Events: f.TraceOut != ""}
	if f.MetricsOut != "" && o.SampleEvery == 0 {
		o.SampleEvery = DefaultSampleEvery
	}
	return o
}

// SuffixPath inserts ".suffix" before path's extension: SuffixPath("a/b.jsonl",
// "4ctx") is "a/b.4ctx.jsonl". An empty suffix returns path unchanged.
func SuffixPath(path, suffix string) string {
	if suffix == "" {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + suffix + ext
}
