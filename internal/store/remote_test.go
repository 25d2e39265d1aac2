package store

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// shardHandler is a minimal in-test server speaking the /store/v1
// protocol, the same contract internal/serve implements for icrd.
type shardHandler struct {
	mu     sync.Mutex
	data   map[string][]byte
	claims *ClaimTable
}

func newShardHandler() *shardHandler {
	return &shardHandler{data: make(map[string][]byte), claims: NewClaimTable(time.Minute)}
}

func (h *shardHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case strings.HasPrefix(r.URL.Path, ClaimPathPrefix):
		key := strings.TrimPrefix(r.URL.Path, ClaimPathPrefix)
		var req ClaimRequest
		if r.ContentLength != 0 {
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		switch r.Method {
		case http.MethodPost:
			cr := ClaimResponse{State: ClaimWait, RetryAfterMS: 5}
			granted := ClaimResponse{State: ClaimGranted, Token: req.Token, TTLMS: h.claims.TTL().Milliseconds()}
			if _, ok := h.data[key]; ok {
				cr = ClaimResponse{State: ClaimDone}
			} else if req.Token != "" {
				if h.claims.Renew(key, req.Token) {
					cr = granted
				}
			} else if granted.Token, _ = h.claims.Claim(key); granted.Token != "" {
				cr = granted
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(cr) //nolint // test server
		case http.MethodDelete:
			h.claims.Release(key, req.Token)
			w.WriteHeader(http.StatusNoContent)
		default:
			w.WriteHeader(http.StatusMethodNotAllowed)
		}
	case strings.HasPrefix(r.URL.Path, StorePathPrefix):
		key := strings.TrimPrefix(r.URL.Path, StorePathPrefix)
		switch r.Method {
		case http.MethodGet:
			body, ok := h.data[key]
			if !ok {
				http.Error(w, "miss", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(body) //nolint // test server
		case http.MethodPut:
			var rep metrics.Report
			if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			body, _ := json.Marshal(&rep)
			h.data[key] = body
			h.claims.Release(key, "")
			w.WriteHeader(http.StatusNoContent)
		default:
			w.WriteHeader(http.StatusMethodNotAllowed)
		}
	default:
		http.NotFound(w, r)
	}
}

func TestRemoteRoundTrip(t *testing.T) {
	srv := httptest.NewServer(newShardHandler())
	defer srv.Close()
	r := NewRemote(srv.URL, srv.Client())
	key := keyN(0)

	if _, err := r.Get(ctx, key); !errors.Is(err, ErrMiss) {
		t.Fatalf("cold Get = %v, want ErrMiss", err)
	}
	want := testReport(42)
	if err := r.Put(ctx, key, want); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Benchmark != want.Benchmark {
		t.Errorf("round trip mangled the report: got %+v", got)
	}
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.ReadErrors != 0 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 put", st)
	}
}

func TestRemoteClaimProtocol(t *testing.T) {
	srv := httptest.NewServer(newShardHandler())
	defer srv.Close()
	r := NewRemote(srv.URL, srv.Client())
	key := keyN(1)

	held, err := r.Claim(ctx, key, "")
	if err != nil || held.State != ClaimGranted || !ValidClaimToken(held.Token) || held.TTLMS <= 0 {
		t.Fatalf("first claim = %+v, %v; want granted with a token and a TTL", held, err)
	}
	cr, err := r.Claim(ctx, key, "")
	if err != nil || cr.State != ClaimWait {
		t.Fatalf("second claim = %+v, %v; want wait", cr, err)
	}
	if cr.RetryAfterMS <= 0 {
		t.Error("wait response carried no retry hint")
	}
	// The holder's token renews; a foreign token does not.
	if cr, err := r.Claim(ctx, key, held.Token); err != nil || cr.State != ClaimGranted || cr.Token != held.Token {
		t.Fatalf("renewal = %+v, %v; want granted under the same token", cr, err)
	}
	if cr, _ := r.Claim(ctx, key, newClaimToken()); cr.State == ClaimGranted {
		t.Fatal("renewal under a foreign token granted")
	}
	// The result landing clears the claim: claims now answer done.
	if err := r.Put(ctx, key, testReport(1)); err != nil {
		t.Fatal(err)
	}
	cr, err = r.Claim(ctx, key, "")
	if err != nil || cr.State != ClaimDone {
		t.Fatalf("claim after result = %+v, %v; want done", cr, err)
	}
	// Unclaim releases an orphaned claim.
	key2 := keyN(2)
	held, _ = r.Claim(ctx, key2, "")
	if held.State != ClaimGranted {
		t.Fatal("setup claim not granted")
	}
	if err := r.Unclaim(ctx, key2, held.Token); err != nil {
		t.Fatal(err)
	}
	if cr, _ := r.Claim(ctx, key2, ""); cr.State != ClaimGranted {
		t.Error("released claim not re-granted")
	}
}

// TestRemoteServerErrorsSurface: a 5xx shard answer is an error with the
// shard's identity in it — never a silent miss.
func TestRemoteServerErrorsSurface(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	r := NewRemote(srv.URL, srv.Client())
	key := keyN(3)

	if _, err := r.Get(ctx, key); err == nil || errors.Is(err, ErrMiss) {
		t.Fatalf("Get against 503 = %v, want a non-miss error", err)
	}
	if err := r.Put(ctx, key, testReport(1)); err == nil {
		t.Fatal("Put against 503 succeeded")
	}
	if _, err := r.Claim(ctx, key, ""); err == nil {
		t.Fatal("Claim against 503 succeeded")
	}
	st := r.Stats()
	if st.ReadErrors != 1 || st.PutErrors != 1 {
		t.Errorf("stats = %+v, want 1 read error and 1 put error", st)
	}
}

// TestRemoteDeadShard: connection refused surfaces as an error.
func TestRemoteDeadShard(t *testing.T) {
	srv := httptest.NewServer(newShardHandler())
	srv.Close() // immediately: the port now refuses connections
	r := NewRemote(srv.URL, nil)
	if _, err := r.Get(ctx, keyN(4)); err == nil || errors.Is(err, ErrMiss) {
		t.Fatalf("Get against dead shard = %v, want a non-miss error", err)
	}
}

// TestRemoteName: bare host:port normalizes to a scheme-qualified ring
// identity, so "h1:8080" and "http://h1:8080" hash identically.
func TestRemoteName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"host:9000", "http://host:9000"},
		{"http://host:9000", "http://host:9000"},
		{"http://host:9000/", "http://host:9000"},
		{"https://host:9000", "https://host:9000"},
	} {
		if got := NewRemote(tc.in, nil).Name(); got != tc.want {
			t.Errorf("NewRemote(%q).Name() = %q, want %q", tc.in, got, tc.want)
		}
	}
}
