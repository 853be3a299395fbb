package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
)

// TextContentType is the Content-Type of the Prometheus text exposition
// format served by WritePrometheus.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format. Output is deterministic: families sort by name,
// series by their canonical label rendering — two scrapes of the same
// state are byte-identical, which is what the golden-file test pins.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.write(bw)
	}
	return bw.Flush()
}

func (f *family) write(bw *bufio.Writer) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ss := make([]series, 0, len(keys)) // copies: instruments are read under f.mu
	for _, k := range keys {
		ss = append(ss, *f.series[k])
	}
	f.mu.Unlock()

	bw.WriteString("# HELP ")
	bw.WriteString(f.name)
	bw.WriteByte(' ')
	bw.WriteString(f.help)
	bw.WriteString("\n# TYPE ")
	bw.WriteString(f.name)
	bw.WriteByte(' ')
	bw.WriteString(string(f.kind))
	bw.WriteByte('\n')
	for i := range ss {
		ss[i].write(bw, f)
	}
}

func (s *series) write(bw *bufio.Writer, f *family) {
	switch {
	case s.fn != nil:
		writeSample(bw, f.name, s.labels, "", formatFloat(s.fn()))
	case s.c != nil:
		writeSample(bw, f.name, s.labels, "", strconv.FormatUint(s.c.Value(), 10))
	case s.g != nil:
		writeSample(bw, f.name, s.labels, "", formatFloat(s.g.Value()))
	case s.h != nil:
		s.writeHistogram(bw, f)
	}
}

// writeHistogram emits the cumulative _bucket series plus _sum and
// _count. Bucket counts are loaded once each; the totals are whatever
// was current at each load — the standard Prometheus relaxed-atomicity
// contract for concurrent observation.
func (s *series) writeHistogram(bw *bufio.Writer, f *family) {
	h := s.h
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeSample(bw, f.name+"_bucket", s.labels, `le="`+formatFloat(bound)+`"`, strconv.FormatUint(cum, 10))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSample(bw, f.name+"_bucket", s.labels, `le="+Inf"`, strconv.FormatUint(cum, 10))
	writeSample(bw, f.name+"_sum", s.labels, "", formatFloat(h.Sum()))
	writeSample(bw, f.name+"_count", s.labels, "", strconv.FormatUint(h.Count(), 10))
}

func writeSample(bw *bufio.Writer, name, labels, extraLabel, value string) {
	bw.WriteString(name)
	if labels != "" || extraLabel != "" {
		bw.WriteByte('{')
		bw.WriteString(labels)
		if labels != "" && extraLabel != "" {
			bw.WriteByte(',')
		}
		bw.WriteString(extraLabel)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
