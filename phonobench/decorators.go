package main

import (
	"io"
	"net/http"
	"strings"
	"sync"

	"phonocmap/internal/store"
)

// tracedStore decorates the service's persistent store with spans
// around Get and Put. It is passed to the service as Config.Store, so
// the spans time the store exactly as the result cache calls it. Every
// call goes to the wrapped store with the same arguments and returns
// its results unchanged.
type tracedStore struct {
	store.Store
	t *tracer

	mu         sync.Mutex
	gets, hits int64
}

func newTracedStore(s store.Store, t *tracer) *tracedStore {
	return &tracedStore{Store: s, t: t}
}

func (s *tracedStore) Get(key string) (store.Entry, bool, error) {
	_, sp := s.t.begin(bg, "store.get")
	e, ok, err := s.Store.Get(key)
	sp.end()
	s.mu.Lock()
	s.gets++
	if ok {
		s.hits++
	}
	s.mu.Unlock()
	return e, ok, err
}

func (s *tracedStore) Put(key string, e store.Entry) error {
	_, sp := s.t.begin(bg, "store.put")
	err := s.Store.Put(key, e)
	sp.end()
	return err
}

// Stats forwards the wrapped store's stats, so the service's /v1/cache
// and /metrics read the same numbers through the decorator.
func (s *tracedStore) Stats() store.Stats {
	if sr, ok := s.Store.(store.StatReader); ok {
		return sr.Stats()
	}
	return store.Stats{}
}

// counts returns the store lookups seen so far and how many hit.
func (s *tracedStore) counts() (gets, hits int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.hits
}

// tracingTransport is an http.RoundTripper that records one span per
// API call, named after the route it calls. It goes into client.Client
// through client.WithHTTPClient (and into fleet nodes through
// fleet.Config.ClientOptions). The span of a call parents itself under
// the span its request context carries and ends when the response body
// is closed, so a server-sent event stream is timed until the client
// stops reading it. Requests and responses pass through unchanged.
type tracingTransport struct {
	next http.RoundTripper
	t    *tracer
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	_, sp := tt.t.begin(req.Context(), routeSpan(req.Method, req.URL.Path))
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		sp.endWith(0, req.URL.Host)
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp, status: resp.StatusCode, node: req.URL.Host}
	return resp, nil
}

// spanBody ends its call's span when the body is closed.
type spanBody struct {
	io.ReadCloser
	sp     *openSpan
	status int
	node   string
	once   sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.sp.endWith(b.status, b.node) })
	return err
}

// routeSpan names the span of one HTTP API call after the client step
// it serves.
func routeSpan(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case path == "/healthz":
		return "client.health"
	case len(parts) < 2 || parts[0] != "v1":
		return "client.other"
	}
	prefix := ""
	switch parts[1] {
	case "jobs":
	case "sweeps":
		prefix = "sweep_"
	default:
		return "client.other"
	}
	switch {
	case len(parts) == 2 && method == http.MethodPost:
		return "client." + prefix + "submit"
	case len(parts) == 3 && method == http.MethodGet:
		return "client." + prefix + "poll"
	case len(parts) == 4 && parts[3] == "events":
		return "client." + prefix + "await"
	case len(parts) == 4 && parts[3] == "result":
		return "client." + prefix + "fetch"
	}
	return "client.other"
}
