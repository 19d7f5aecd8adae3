package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/runner"
	"phonocmap/internal/scenario"
)

// fullResult is a scenario result with every field set, so a field that
// canonicalization touches shows up as a difference.
func fullResult() runner.ScenarioResult {
	score := core.Score{Cost: -1.5, WorstLossDB: 3.25, WorstSNRDB: 21.5, AvgLossDB: 2, Conflicts: 1}
	return runner.ScenarioResult{
		Spec:        scenario.Spec{App: config.AppSpec{Builtin: "PIP"}, Algorithm: "sa", Budget: 100, Seed: 3, Seeds: 2},
		Algorithm:   "sa",
		Objective:   "snr",
		Mapping:     core.Mapping{3, 1, 2},
		Score:       score,
		Evals:       100,
		IslandEvals: []int{50, 50},
		Seed:        4,
		DurationMs:  12.5,
		Cancelled:   true,
		Report:      &scenario.Report{WDM: &scenario.WDMReport{Channels: 2, Conflicts: 1, WorstLossDB: 1, WorstSNRDB: 2}},
		Trace: &scenario.RunTrace{
			Events: []scenario.TraceEvent{
				{Island: 1, Evals: 7, Score: score, AtMs: 0.5},
				{Island: 0, Evals: 9, Score: score, AtMs: 1.5},
			},
			Islands:      []scenario.IslandSpan{{Island: 1, Evals: 50, Improvements: 3, EvalsPerSec: 99}},
			TimeToBestMs: 1.5,
			DurationMs:   12,
			EvalsPerSec:  8000,
		},
	}
}

// leaves flattens a JSON value into path -> value.
func leaves(prefix string, v any, out map[string]any) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			leaves(prefix+"."+k, e, out)
		}
	case []any:
		for i, e := range x {
			leaves(fmt.Sprintf("%s.%d", prefix, i), e, out)
		}
	default:
		out[prefix] = x
	}
}

func jsonLeaves(t *testing.T, v any) map[string]any {
	t.Helper()
	var generic any
	if err := json.Unmarshal(mustJSON(v), &generic); err != nil {
		t.Fatal(err)
	}
	out := map[string]any{}
	leaves("", generic, out)
	return out
}

func TestCanonicalZeroesExactlyTheWallClockFields(t *testing.T) {
	r := fullResult()
	before := jsonLeaves(t, r)
	after := jsonLeaves(t, canonical(r))
	var changed []string
	for path, v := range before {
		if w, ok := after[path]; !ok || !reflect.DeepEqual(v, w) {
			changed = append(changed, path)
		}
	}
	sort.Strings(changed)
	want := []string{
		".duration_ms",
		".trace.duration_ms",
		".trace.evals_per_sec",
		".trace.events.0.at_ms",
		".trace.events.1.at_ms",
		".trace.islands.0.evals_per_sec",
		".trace.time_to_best_ms",
	}
	if !reflect.DeepEqual(changed, want) {
		t.Errorf("canonicalization changed %v, want exactly %v", changed, want)
	}
	for path := range after {
		if _, ok := before[path]; !ok {
			t.Errorf("canonicalization added field %s", path)
		}
	}
}

func TestCanonicalLeavesItsArgumentAlone(t *testing.T) {
	r := fullResult()
	want := mustJSON(r)
	_ = canonical(r)
	if got := mustJSON(r); string(got) != string(want) {
		t.Errorf("canonical modified the caller's result:\n%s\n%s", got, want)
	}
}

func TestCanonicalMakesTwoLiveRunsEqual(t *testing.T) {
	a, b := fullResult(), fullResult()
	b.DurationMs, b.Trace.DurationMs, b.Trace.Events[0].AtMs = 99, 98, 0.01
	if string(canonicalJSON(a)) != string(canonicalJSON(b)) {
		t.Error("runs differing only in wall-clock fields canonicalize differently")
	}
	b.Score.Cost++
	if string(canonicalJSON(a)) == string(canonicalJSON(b)) {
		t.Error("runs with different scores canonicalize equally")
	}
}

func TestDigestSeparatesParts(t *testing.T) {
	var a, b digest
	a.add([]byte("ab"))
	a.add([]byte("c"))
	b.add([]byte("a"))
	b.add([]byte("bc"))
	if a.sum() == b.sum() {
		t.Error("digest ignores where parts end")
	}
}
