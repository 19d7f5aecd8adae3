package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"phonocmap/internal/core"
	"phonocmap/internal/store"
)

// fakeStore records every call and answers from fixed values.
type fakeStore struct {
	calls []string
	entry store.Entry
}

var errFake = errors.New("fake failure")

func (f *fakeStore) Get(key string) (store.Entry, bool, error) {
	f.calls = append(f.calls, "get "+key)
	return f.entry, key == "hit", errFake
}
func (f *fakeStore) Put(key string, e store.Entry) error {
	f.calls = append(f.calls, "put "+key+" "+e.Key)
	return errFake
}
func (f *fakeStore) Keys() []string      { f.calls = append(f.calls, "keys"); return []string{"a", "b"} }
func (f *fakeStore) Delete(string) error { f.calls = append(f.calls, "delete"); return errFake }
func (f *fakeStore) Len() int            { f.calls = append(f.calls, "len"); return 9 }
func (f *fakeStore) Close() error        { f.calls = append(f.calls, "close"); return errFake }
func (f *fakeStore) Stats() store.Stats  { return store.Stats{Entries: 9, Bytes: 99} }

func TestTracedStorePassesCallsThrough(t *testing.T) {
	inner := &fakeStore{entry: store.Entry{Key: "hit", Result: core.RunResult{Evals: 5}}}
	tr := newTracer()
	s := newTracedStore(inner, tr)

	e, ok, err := s.Get("hit")
	if !ok || err != errFake || !reflect.DeepEqual(e, inner.entry) {
		t.Errorf("Get = %+v %v %v, want the inner store's answer", e, ok, err)
	}
	if _, ok, _ := s.Get("miss"); ok {
		t.Error("Get(miss) reported a hit")
	}
	if err := s.Put("k", store.Entry{Key: "k"}); err != errFake {
		t.Errorf("Put error = %v, want the inner store's", err)
	}
	if keys := s.Keys(); !reflect.DeepEqual(keys, []string{"a", "b"}) {
		t.Errorf("Keys = %v", keys)
	}
	if s.Delete("x") != errFake || s.Len() != 9 || s.Close() != errFake {
		t.Error("Delete, Len or Close changed the inner store's answer")
	}
	if st := s.Stats(); st.Entries != 9 || st.Bytes != 99 {
		t.Errorf("Stats = %+v, want the inner store's", st)
	}
	want := []string{"get hit", "get miss", "put k k", "keys", "delete", "len", "close"}
	if !reflect.DeepEqual(inner.calls, want) {
		t.Errorf("inner store saw %v, want %v", inner.calls, want)
	}
	if gets, hits := s.counts(); gets != 2 || hits != 1 {
		t.Errorf("counts = %d gets %d hits, want 2 and 1", gets, hits)
	}
	names := map[string]int{}
	for _, sp := range tr.snapshot() {
		names[sp.Name]++
	}
	if names["store.get"] != 2 || names["store.put"] != 1 {
		t.Errorf("spans %v, want 2 store.get and 1 store.put", names)
	}
}

func TestTracingTransportPassesRequestsThrough(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Echo", r.Method+" "+r.URL.Path+" "+r.Header.Get("X-In"))
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, "got:"+string(body))
	}))
	defer srv.Close()

	do := func(hc *http.Client, ctx context.Context) (int, string, string) {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(`{"a":1}`))
		req.Header.Set("X-In", "v")
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("X-Echo"), string(b)
	}
	tr := newTracer()
	plain := &http.Client{}
	traced := &http.Client{Transport: &tracingTransport{next: http.DefaultTransport, t: tr}}
	ctx, root := tr.begin(context.Background(), "client.run_scenario")
	c1, h1, b1 := do(plain, context.Background())
	c2, h2, b2 := do(traced, ctx)
	root.end()
	if c1 != c2 || h1 != h2 || b1 != b2 {
		t.Errorf("traced call returned %d %q %q, plain call %d %q %q", c2, h2, b2, c1, h1, b1)
	}
	if b2 != `got:{"a":1}` {
		t.Errorf("request body did not reach the server: %q", b2)
	}
	var submit *span
	for _, s := range tr.snapshot() {
		if s.Name == "client.submit" {
			submit = &s
		}
	}
	if submit == nil {
		t.Fatal("no client.submit span recorded")
	}
	if submit.Status != http.StatusAccepted || submit.Parent == 0 || !strings.Contains(srv.URL, submit.Node) {
		t.Errorf("submit span %+v: want status 202, a parent, and the server's host", *submit)
	}
}

func TestRouteSpanNames(t *testing.T) {
	for _, tc := range []struct{ method, path, want string }{
		{"POST", "/v1/jobs", "client.submit"},
		{"GET", "/v1/jobs/7", "client.poll"},
		{"GET", "/v1/jobs/7/events", "client.await"},
		{"GET", "/v1/jobs/7/result", "client.fetch"},
		{"POST", "/v1/sweeps", "client.sweep_submit"},
		{"GET", "/v1/sweeps/3", "client.sweep_poll"},
		{"GET", "/v1/sweeps/3/result", "client.sweep_fetch"},
		{"GET", "/healthz", "client.health"},
		{"GET", "/v1/apps", "client.other"},
		{"GET", "/metrics", "client.other"},
	} {
		if got := routeSpan(tc.method, tc.path); got != tc.want {
			t.Errorf("routeSpan(%s %s) = %s, want %s", tc.method, tc.path, got, tc.want)
		}
	}
}
