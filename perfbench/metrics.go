package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Percentile is one order statistic of a sample together with the sample
// size it came from, so a tail figure is never quoted without the number
// of observations behind it.
type Percentile struct {
	P      float64 `json:"p"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the sample at or below it.
// Beyond counts the samples strictly after that rank. An empty sample
// yields the zero value with N = 0.
func percentile(xs []float64, p float64) Percentile {
	if len(xs) == 0 {
		return Percentile{P: p}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return Percentile{P: p, Value: s[rank-1], N: len(s), Beyond: len(s) - rank}
}

func median(xs []float64) float64 { return percentile(xs, 50).Value }

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// validMetricName reports whether s is a legal metric name: 1-64 bytes of
// [A-Za-z0-9_.-], starting with a letter or digit.
func validMetricName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '_' || c == '.' || c == '-':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Metric is one reported figure. Moves and Workload say which end-to-end
// metric a per-layer figure should move and on which workload that
// layer does most of its work; they are empty for end-to-end metrics.
type Metric struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Note     string  `json:"note,omitempty"`
	Moves    string  `json:"moves,omitempty"`
	Workload string  `json:"workload,omitempty"`
}

// metricSet is an insertion-ordered set of named metrics.
type metricSet struct {
	names []string
	byKey map[string]Metric
}

func newMetricSet() *metricSet { return &metricSet{byKey: map[string]Metric{}} }

func (m *metricSet) set(name string, mt Metric) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("perfbench: invalid metric name %q", name))
	}
	if _, ok := m.byKey[name]; !ok {
		m.names = append(m.names, name)
	}
	m.byKey[name] = mt
}

func (m *metricSet) add(name string, value float64, unit string) {
	m.set(name, Metric{Value: value, Unit: unit})
}
