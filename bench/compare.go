// Repeatability tooling: compare two sets of runs (two -out files)
// metric by metric against the regression bounds in BENCHMARK.json.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords groups an -out file's metric values by workload and name.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for k, m := range rec.Result.Metrics {
			out[rec.Workload][k] = append(out[rec.Workload][k], m.Value)
		}
	}
	return out, sc.Err()
}

// runCompare prints, per workload and end-to-end metric, both sets'
// medians and quartile spreads and whether b is within the bound of a.
func runCompare(w io.Writer, specPath, a, b string) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	ra, err := readRecords(a)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(b)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(ra))
	for k := range ra {
		names = append(names, k)
	}
	sort.Strings(names)
	allOK := true
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			xa, xb := ra[wl][m.Name], rb[wl][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "pass"
			if worse > m.Bound {
				verdict, allOK = "FAIL", false
			}
			fmt.Fprintf(w, "%-12s %-14s a %.4f (spread %.1f%%, n=%d)  b %.4f (spread %.1f%%, n=%d)  worse %+.1f%%  bound %.0f%%  %s\n",
				wl, m.Name, ma, 100*spread(xa), len(xa), mb, 100*spread(xb), len(xb), 100*worse, 100*m.Bound, verdict)
		}
	}
	return allOK, nil
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which the acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}
