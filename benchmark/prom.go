package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// promSample is the parsed value set of one Prometheus text page, keyed
// by the sample's full identity: name plus its label set rendered
// `k="v"` sorted by key, e.g.
// `figret_serve_stage_duration_seconds_sum{stage="predict",topology="geant"}`.
type promPage map[string]float64

// promKey builds a promPage key; labels are alternating name, value.
func promKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	parts := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		parts = append(parts, labels[i]+`="`+labels[i+1]+`"`)
	}
	sort.Strings(parts)
	return name + "{" + strings.Join(parts, ",") + "}"
}

// parseProm parses text exposition format 0.0.4. Histogram buckets are
// skipped: only _sum/_count, counters and gauges are differenced.
func parseProm(r io.Reader) (promPage, error) {
	page := promPage{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		id, val := line[:sp], line[sp+1:]
		name := id
		var labels []string
		if b := strings.IndexByte(id, '{'); b >= 0 {
			if !strings.HasSuffix(id, "}") {
				return nil, fmt.Errorf("prom: unterminated labels in %q", line)
			}
			name = id[:b]
			var err error
			if labels, err = splitLabels(id[b+1 : len(id)-1]); err != nil {
				return nil, fmt.Errorf("prom: %w in %q", err, line)
			}
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("prom: value of %q: %w", id, err)
		}
		page[promKey(name, labels...)] = v
	}
	return page, sc.Err()
}

// splitLabels splits `a="x",b="y"` into [a x b y]; values may hold
// escaped quotes and commas.
func splitLabels(s string) ([]string, error) {
	var out []string
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label")
		}
		name := s[:eq]
		rest := s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
				val.WriteByte(rest[i])
				continue
			}
			if rest[i] == '"' {
				break
			}
			val.WriteByte(rest[i])
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value")
		}
		out = append(out, name, val.String())
		s = strings.TrimPrefix(rest[i+1:], ",")
	}
	return out, nil
}

// scrape fetches and parses a daemon's /metrics page.
func scrape(opsURL string) (promPage, error) {
	resp, err := http.Get(opsURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", opsURL, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// delta returns after[key] - before[key].
func (after promPage) delta(before promPage, key string) float64 {
	return after[key] - before[key]
}

// meanDelta returns the mean, over the interval between two scrapes, of a
// histogram family: delta(_sum) / delta(_count). The second result is the
// sample count of the interval.
func (after promPage) meanDelta(before promPage, family string, labels ...string) (mean float64, n float64) {
	n = after.delta(before, promKey(family+"_count", labels...))
	if n <= 0 {
		return 0, 0
	}
	return after.delta(before, promKey(family+"_sum", labels...)) / n, n
}
