package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"p2"
)

// waitGoroutines polls runtime.NumGoroutine back down to base within a
// bounded wait, failing with a full goroutine dump if it never gets there.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			var dump strings.Builder
			pprof.Lookup("goroutine").WriteTo(&dump, 1)
			t.Fatalf("%d goroutines still running, baseline %d:\n%s", runtime.NumGoroutine(), base, dump.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// inFlight reads the /statz in-flight gauge.
func inFlight(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/statz")
	if err != nil {
		t.Fatalf("GET /statz: %v", err)
	}
	defer resp.Body.Close()
	var st Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /statz: %v", err)
	}
	return st.InFlight
}

// TestClientDisconnectReleasesGoroutines hangs up a client mid-plan: the
// disconnect must cancel the request's planning context, the handler must
// give its in-flight slot back (/statz in_flight returns to 0), and closing
// the server must leave no goroutine behind.
func TestClientDisconnectReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewServer(Config{})
	realPlan := s.planFn
	entered, seen := make(chan struct{}), make(chan error, 1)
	s.planFn = func(ctx context.Context, sys *p2.System, req p2.Request) (*p2.PlanResult, error) {
		close(entered)
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
		}
		seen <- ctx.Err()
		return realPlan(ctx, sys, req)
	}
	ts := httptest.NewServer(s.Handler())

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/plan", strings.NewReader(fig2aBody))
	if err != nil {
		t.Fatal(err)
	}
	clientErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientErr <- err
	}()
	<-entered
	cancel()
	if err := <-clientErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want context.Canceled", err)
	}
	if err := <-seen; !errors.Is(err, context.Canceled) {
		t.Fatalf("planning ctx err after the disconnect = %v, want context.Canceled", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for n := inFlight(t, ts.URL); n != 0; n = inFlight(t, ts.URL) {
		if time.Now().After(deadline) {
			t.Fatalf("/statz in_flight = %d after the client disconnected, want 0", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts.Close()
	waitGoroutines(t, base)
}
