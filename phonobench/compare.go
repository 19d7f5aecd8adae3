package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords loads a --record file: one run per line.
func readRecords(path string) ([]recordLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []recordLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r recordLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// comparison is the verdict on one metric of one workload.
type comparison struct {
	Parent, Change [3]float64 // first quartile, median, third quartile
	Wins, Pairs    int
	Verdict        string
}

// compareMetric applies the acceptance rule to one metric's runs,
// paired by position (run i of the parent with run i of the change):
//
//   - improved: the change wins at least nine tenths of the pairs (ties
//     count for neither side) and the medians differ, in the change's
//     favour, by more than the parent's interquartile distance;
//   - unresolved: the metric has a bound, the parent's own spread
//     (interquartile distance over median) is wider than it, and not
//     every change run beats every parent run;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound's share of the parent's median;
//   - unchanged: otherwise. Metrics without a bound are never regressed
//     or unresolved; they are improved or unchanged.
func compareMetric(d metricDef, parent, change []float64) comparison {
	c := comparison{}
	c.Parent[0], c.Parent[1], c.Parent[2] = quartiles(parent)
	c.Change[0], c.Change[1], c.Change[2] = quartiles(change)
	better := func(a, b float64) bool { // a better than b
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	c.Pairs = min(len(parent), len(change))
	for i := 0; i < c.Pairs; i++ {
		if better(change[i], parent[i]) {
			c.Wins++
		}
	}
	pMed, cMed := c.Parent[1], c.Change[1]
	iqr := c.Parent[2] - c.Parent[0]
	allBetter := len(parent) > 0 && len(change) > 0
	for _, x := range change {
		for _, y := range parent {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := (cMed - pMed) / math.Abs(pMed)
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case c.Pairs > 0 && 10*c.Wins >= 9*c.Pairs && better(cMed, pMed) && math.Abs(cMed-pMed) > iqr:
		c.Verdict = "improved"
	case d.Bound > 0 && iqr/math.Abs(pMed) > d.Bound && !allBetter:
		c.Verdict = "unresolved"
	case d.Bound > 0 && worse > d.Bound:
		c.Verdict = "regressed"
	default:
		c.Verdict = "unchanged"
	}
	return c
}

// runCompare prints, per workload and metric, both sides' medians and
// quartiles, the change's pair wins and the verdict, then the tracing
// overhead each side's traced runs show.
func runCompare(w io.Writer, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	values := func(recs []recordLine, workload string, trace int, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if r.Workload == workload && r.Trace == trace {
				if m, ok := r.Result.Metrics[metric]; ok {
					out = append(out, m.Value)
				}
			}
		}
		return out
	}
	names := map[string]bool{}
	for _, r := range append(append([]recordLine(nil), parent...), change...) {
		names[r.Workload] = true
	}
	var wls []string
	for n := range names {
		wls = append(wls, n)
	}
	sort.Strings(wls)

	fmt.Fprintf(w, "%-13s %-28s %-40s %-40s %-7s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range wls {
		for trace, table := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range table {
				p, c := values(parent, wl, trace, d.Name), values(change, wl, trace, d.Name)
				if len(p) == 0 || len(c) == 0 {
					continue
				}
				r := compareMetric(d, p, c)
				fmt.Fprintf(w, "%-13s %-28s %-40s %-40s %-7s %s\n", wl, d.Name,
					fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", r.Parent[1], r.Parent[0], r.Parent[2], len(p)),
					fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", r.Change[1], r.Change[0], r.Change[2], len(c)),
					fmt.Sprintf("%d/%d", r.Wins, r.Pairs), r.Verdict)
			}
		}
	}
	for _, side := range []struct {
		name string
		recs []recordLine
	}{{"parent", parent}, {"change", change}} {
		for _, wl := range wls {
			plain, traced := values(side.recs, wl, 0, "ops_per_s"), values(side.recs, wl, 1, "trace.ops_per_s")
			if len(plain) == 0 || len(traced) == 0 {
				continue
			}
			fmt.Fprintf(w, "tracing overhead (%s, %s): %.2f%% of untraced throughput\n",
				side.name, wl, 100*(1-median(traced)/median(plain)))
		}
	}
	return nil
}
