package main

import (
	"bufio"
	"strconv"
	"strings"
)

// promSample is one sample line of Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promText is a parsed scrape. The benchmark reads the service's own
// exposition (GET /metrics, fleet WriteProm) rather than internal
// counters, so it measures exactly what an operator sees.
type promText []promSample

func parseProm(text string) promText {
	var out promText
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		s := promSample{name: series, value: v}
		if i := strings.IndexByte(series, '{'); i >= 0 && strings.HasSuffix(series, "}") {
			s.name = series[:i]
			s.labels = parseLabels(series[i+1 : len(series)-1])
		}
		out = append(out, s)
	}
	return out
}

// parseLabels reads `a="x",b="y"`. Label values in this exposition are
// route, stage, tier, endpoint and outcome names, which carry no quotes
// or commas.
func parseLabels(s string) map[string]string {
	m := map[string]string{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		m[k] = strings.Trim(v, `"`)
	}
	return m
}

// sum adds every sample of the named series whose labels include match.
func (p promText) sum(name string, match map[string]string) float64 {
	total := 0.0
	for _, s := range p {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.value
		}
	}
	return total
}
