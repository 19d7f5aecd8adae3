package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"phonocmap/internal/service"
)

// fakeJobs serves GET /v1/jobs from whatever listing the test sets.
type fakeJobs struct {
	mu   sync.Mutex
	list []service.JobStatus
}

func (f *fakeJobs) set(list []service.JobStatus) {
	f.mu.Lock()
	f.list = list
	f.mu.Unlock()
}

func (f *fakeJobs) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_ = json.NewEncoder(w).Encode(f.list)
}

// doneJob is a finished job submitted at t0+sub that waited wait and ran
// run, both in milliseconds.
func doneJob(num int, t0 time.Time, sub, wait, run int) service.JobStatus {
	ms := func(d int) string { return t0.Add(time.Duration(d) * time.Millisecond).Format(time.RFC3339Nano) }
	return service.JobStatus{
		ID: fmt.Sprintf("job-%06d", num), State: service.StateDone,
		Submitted: ms(sub), Started: ms(sub + wait), Finished: ms(sub + wait + run),
	}
}

// The collector books every live finished job once, leaves out cache
// hits, unfinished jobs and jobs submitted before its start, and fails
// when a full listing shows that jobs were forgotten unseen.
func TestJobTimesBooksEachLiveJobOnceAndSeesGaps(t *testing.T) {
	fj := &fakeJobs{}
	ts := httptest.NewServer(fj)
	defer ts.Close()
	n := &node{ts: ts, base: &http.Transport{}}
	defer n.base.CloseIdleConnections()
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	jt := &jobTimes{nodes: []*node{n}, from: t0, seen: map[string]bool{}, lastID: map[*node]int{}}

	cached := doneJob(3, t0, 5, 0, 0)
	cached.Cached = true
	running := service.JobStatus{ID: "job-000004", State: service.StateRunning}
	fj.set([]service.JobStatus{
		doneJob(1, t0, -10, 1, 1), // submitted before the collector's start
		doneJob(2, t0, 0, 2, 5),
		cached,
		running,
	})
	if err := jt.poll(); err != nil {
		t.Fatal(err)
	}
	// Job 4 has finished; job 2 is listed again.
	list := []service.JobStatus{doneJob(2, t0, 0, 2, 5), doneJob(4, t0, 10, 3, 7)}
	fj.set(list)
	if err := jt.poll(); err != nil {
		t.Fatal(err)
	}
	if len(jt.wait) != 2 || len(jt.run) != 2 {
		t.Fatalf("booked %d waits and %d run times, want 2 and 2", len(jt.wait), len(jt.run))
	}
	if !near(jt.wait[0], 0.002) || !near(jt.run[0], 0.005) || !near(jt.wait[1], 0.003) || !near(jt.run[1], 0.007) {
		t.Errorf("waits %v run times %v, want [0.002 0.003] and [0.005 0.007]", jt.wait, jt.run)
	}

	// A full listing that continues where the last one ended is fine.
	list = nil
	for i := 5; i < 5+serverMaxJobs; i++ {
		list = append(list, doneJob(i, t0, 20, 0, 1))
	}
	fj.set(list)
	if err := jt.poll(); err != nil {
		t.Fatalf("contiguous full listing: %v", err)
	}
	// One that starts past it lost the jobs in between.
	list = nil
	for i := 2000; i < 2000+serverMaxJobs; i++ {
		list = append(list, doneJob(i, t0, 30, 0, 1))
	}
	fj.set(list)
	if err := jt.poll(); err == nil || !strings.Contains(err.Error(), "forgotten") {
		t.Errorf("listing past a gap: err = %v, want jobs forgotten", err)
	}
}
