package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// sample is one series value from a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one parsed /metrics response.
type scrape []sample

// parseProm parses the Prometheus text exposition format: comment lines
// are skipped, every other line is name{labels} value.
func parseProm(text string) (scrape, error) {
	var out scrape
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parseSample(line string) (sample, error) {
	s := sample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.name, line = line[:i], line[i:]
	if line[0] == '{' {
		line = line[1:]
		for {
			line = strings.TrimLeft(line, ", ")
			if strings.HasPrefix(line, "}") {
				line = line[1:]
				break
			}
			eq := strings.Index(line, `="`)
			if eq <= 0 {
				return s, fmt.Errorf("malformed labels in %q", line)
			}
			key := line[:eq]
			line = line[eq+2:]
			var val strings.Builder
			for {
				if line == "" {
					return s, fmt.Errorf("unterminated label value for %s", key)
				}
				c := line[0]
				line = line[1:]
				if c == '"' {
					break
				}
				if c == '\\' && line != "" {
					switch line[0] {
					case 'n':
						c = '\n'
					default:
						c = line[0]
					}
					line = line[1:]
				}
				val.WriteByte(c)
			}
			s.labels[key] = val.String()
		}
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value for %s", s.name)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("value of %s: %w", s.name, err)
	}
	s.value = v
	return s, nil
}

// matches reports whether every label in want has the given value.
func (s *sample) matches(want map[string]string) bool {
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds every series of name whose labels include want.
func (sc scrape) sum(name string, want map[string]string) float64 {
	total := 0.0
	for i := range sc {
		if sc[i].name == name && sc[i].matches(want) {
			total += sc[i].value
		}
	}
	return total
}

// delta is sum(after) - sum(before): a counter's increase between two
// scrapes of the same process.
func delta(before, after scrape, name string, want map[string]string) float64 {
	return after.sum(name, want) - before.sum(name, want)
}

// bucketDelta returns a histogram's cumulative bucket counts, summed over
// the series that keep accepts, as increases between two scrapes.
func bucketDelta(before, after scrape, name string, keep func(map[string]string) bool) map[float64]float64 {
	out := map[float64]float64{}
	add := func(sc scrape, sign float64) {
		for i := range sc {
			s := &sc[i]
			if s.name != name+"_bucket" || (keep != nil && !keep(s.labels)) {
				continue
			}
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil {
				continue
			}
			out[le] += sign * s.value
		}
	}
	add(after, 1)
	add(before, -1)
	return out
}

// bucketQuantile is Prometheus's histogram_quantile over cumulative
// bucket counts: linear interpolation inside the bucket holding the
// rank. A rank in the +Inf bucket reports the highest finite bound; an
// empty histogram reports NaN.
func bucketQuantile(q float64, buckets map[float64]float64) float64 {
	les := make([]float64, 0, len(buckets))
	for le := range buckets {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || !math.IsInf(les[len(les)-1], 1) {
		return math.NaN()
	}
	total := buckets[les[len(les)-1]]
	if total <= 0 {
		return math.NaN()
	}
	rank := q * total
	lower, prev := 0.0, 0.0
	for _, le := range les {
		cum := buckets[le]
		if cum >= rank {
			if math.IsInf(le, 1) {
				return lower
			}
			if cum == prev {
				return le
			}
			return lower + (le-lower)*(rank-prev)/(cum-prev)
		}
		lower, prev = le, cum
	}
	return lower
}

// windowDelta sums a counter's increase over the windows.
func windowDelta(ws []window, name string, want map[string]string) float64 {
	total := 0.0
	for _, w := range ws {
		total += delta(w.before, w.after, name, want)
	}
	return total
}

// windowBuckets sums a histogram's bucket increases over the windows.
func windowBuckets(ws []window, name string, keep func(map[string]string) bool) map[float64]float64 {
	out := map[float64]float64{}
	for _, w := range ws {
		for le, v := range bucketDelta(w.before, w.after, name, keep) {
			out[le] += v
		}
	}
	return out
}
