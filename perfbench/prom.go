package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: every
// sample line keyed by its series (metric name plus raw label set).
type promSample map[string]float64

// parseProm reads the text exposition format. Comment lines are
// skipped; a sample line is `name{labels} value` or `name value`.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("prom: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: line %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// seriesName is the metric name of a series key.
func seriesName(key string) string {
	name, _, _ := strings.Cut(key, "{")
	return name
}

// delta returns after minus before, series by series. Gauges come out
// as differences too; read them from a single scrape instead.
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add accumulates o into p.
func (p promSample) add(o promSample) {
	for k, v := range o {
		p[k] += v
	}
}

// sum adds every series of the named metric, across label sets.
func (p promSample) sum(name string) float64 {
	total := 0.0
	for k, v := range p {
		if seriesName(k) == name {
			total += v
		}
	}
	return total
}

// histMean is a histogram's mean observation: the sum of its _sum
// series over the sum of its _count series, across label sets. It is
// 0 when nothing was observed.
func (p promSample) histMean(name string) float64 {
	n := p.sum(name + "_count")
	if n == 0 {
		return 0
	}
	return p.sum(name+"_sum") / n
}

// gaugeMean averages the named gauge over its label sets, skipping
// negative values: sentinels such as -1 for "not yet measured".
func (p promSample) gaugeMean(name string) float64 {
	total, n := 0.0, 0
	for k, v := range p {
		if seriesName(k) == name && v >= 0 {
			total += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
