package main

import (
	"reflect"
	"testing"
)

func TestDensePassIsDeterministicInTheSeed(t *testing.T) {
	a, b := densePass(7), densePass(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("densePass(7) differs between calls")
	}
	if reflect.DeepEqual(a, densePass(8)) {
		t.Fatal("densePass ignores its seed")
	}
	if len(a) != len(denseAlgorithms)*len(denseTopologies) {
		t.Fatalf("pass has %d scenarios, want %d", len(a), len(denseAlgorithms)*len(denseTopologies))
	}
	combos := map[[2]string]bool{}
	for _, spec := range a {
		combos[[2]string{spec.Algorithm, spec.Arch.Topology}] = true
		n := len(spec.App.Tasks)
		if n < 48 || n > 56 || len(spec.App.Edges) != denseEdges {
			t.Errorf("%s: %d tasks, %d edges; want 48..56 tasks and %d edges", spec.App.Name, n, len(spec.App.Edges), denseEdges)
		}
		g, err := spec.App.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.App.Name, err)
		}
		if !g.WeaklyConnected() {
			t.Errorf("%s is not connected", spec.App.Name)
		}
	}
	if len(combos) != len(a) {
		t.Errorf("pass covers %d algorithm/topology pairs, want %d", len(combos), len(a))
	}
}

func TestServeStreamsAreDeterministicAndConsistent(t *testing.T) {
	const n = 2000
	streams := [2]*serveStream{newServeStream(3, 0), newServeStream(3, 1)}
	again := newServeStream(3, 0)
	kinds := map[string]int{}
	for i := 0; i < n; i++ {
		a, b := streams[0].op(i), streams[1].op(i)
		if !reflect.DeepEqual(a, again.op(i)) {
			t.Fatalf("op %d differs between two streams of one seed", i)
		}
		kinds[a.Kind]++
		if (a.Kind == kindTwin) != (b.Kind == kindTwin) {
			t.Fatalf("op %d: twins at different indexes (%s, %s)", i, a.Kind, b.Kind)
		}
		if a.Kind == kindTwin && !reflect.DeepEqual(a.Spec, b.Spec) {
			t.Fatalf("op %d: the two halves of a twin differ", i)
		}
		if a.Kind == kindFresh && b.Kind == kindFresh && reflect.DeepEqual(a.Spec, b.Spec) {
			t.Fatalf("op %d: both clients drew the same fresh spec", i)
		}
		if a.Of >= i {
			t.Fatalf("op %d repeats op %d, which is not earlier", i, a.Of)
		}
		if a.Of >= 0 && !reflect.DeepEqual(a.Spec, streams[0].op(a.Of).Spec) {
			t.Fatalf("op %d is not a repeat of op %d", i, a.Of)
		}
	}
	for _, k := range []string{kindFresh, kindRecent, kindOld, kindTwin} {
		if kinds[k] == 0 {
			t.Errorf("%d ops contain no %s operation: %v", n, k, kinds)
		}
	}
}

func TestOldRepeatsHaveLeftTheLRU(t *testing.T) {
	s := newServeStream(5, 1)
	fresh := 0
	lastUse := map[int]int{}
	for i := 0; i < 3000; i++ {
		o := s.op(i)
		if o.Of < 0 {
			fresh++
			lastUse[i] = fresh
			continue
		}
		if o.Kind == kindOld && fresh-lastUse[o.Of] <= serveLRU {
			t.Fatalf("op %d repeats a spec last used %d fresh specs ago, within the LRU's %d", i, fresh-lastUse[o.Of], serveLRU)
		}
		lastUse[o.Of] = fresh
	}
}

func TestGridSpecIsDeterministicAndFresh(t *testing.T) {
	if !reflect.DeepEqual(gridSpec(4, 2), gridSpec(4, 2)) {
		t.Fatal("gridSpec(4, 2) differs between calls")
	}
	seen := map[int64]int{}
	for k := 0; k < 50; k++ {
		g := gridSpec(4, k)
		if len(g.Seeds) != sweepSeeds+1 {
			t.Fatalf("grid %d has %d seeds, want %d", k, len(g.Seeds), sweepSeeds+1)
		}
		distinct := map[int64]bool{}
		for _, s := range g.Seeds {
			distinct[s] = true
		}
		if len(distinct) != sweepSeeds {
			t.Fatalf("grid %d seeds %v: want %d distinct values and one repeat", k, g.Seeds, sweepSeeds)
		}
		for s := range distinct {
			if prev, ok := seen[s]; ok {
				t.Fatalf("seed %d appears in grids %d and %d", s, prev, k)
			}
			seen[s] = k
		}
	}
}
