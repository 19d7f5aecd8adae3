package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"phonocmap/internal/runner"
	"phonocmap/internal/scenario"
)

// canonical returns a copy of a scenario result with its wall-clock
// fields zeroed: the result's DurationMs and the trace's AtMs,
// TimeToBestMs, DurationMs and throughputs. Everything else is
// deterministic in the spec, so two live runs of one spec (a repeat
// pass, or twin submissions) canonicalize to the same bytes.
func canonical(r runner.ScenarioResult) runner.ScenarioResult {
	r.DurationMs = 0
	if r.Trace != nil {
		t := *r.Trace
		t.TimeToBestMs, t.DurationMs, t.EvalsPerSec = 0, 0, 0
		t.Events = append([]scenario.TraceEvent(nil), t.Events...)
		for i := range t.Events {
			t.Events[i].AtMs = 0
		}
		t.Islands = append([]scenario.IslandSpan(nil), t.Islands...)
		for i := range t.Islands {
			t.Islands[i].EvalsPerSec = 0
		}
		r.Trace = &t
	}
	return r
}

// canonicalJSON is the byte form results are compared and digested in.
func canonicalJSON(r runner.ScenarioResult) []byte {
	return mustJSON(canonical(r))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("phonobench: marshal %T: %v", v, err))
	}
	return b
}

// digest accumulates canonical result bytes into a SHA-256 content
// digest of a workload's deterministic outputs.
type digest struct{ parts [][]byte }

func (d *digest) add(b []byte) { d.parts = append(d.parts, b) }

func (d *digest) sum() string {
	h := sha256.New()
	for _, p := range d.parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
