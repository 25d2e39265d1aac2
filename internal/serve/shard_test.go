package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/store"
)

// newShardServer spins up one icrd shard: a disk store behind the
// /store/v1/ endpoints.
func newShardServer(t testing.TB) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := stubSim()
	eng := runner.New(runner.Options{Simulate: fn})
	s := New(Options{Runner: eng, Backend: st, ShardAPI: true})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, st
}

func shardKey(n byte) string {
	return strings.Repeat("0", 63) + string([]byte{'a' + n%6})
}

func shardReport() *metrics.Report {
	return &metrics.Report{Benchmark: "vpr", Scheme: "BaseP", Instructions: 1000, Cycles: 1234}
}

// TestShardAPIRoundTrip drives the full protocol through real HTTP via
// the store.Remote client: miss, put, hit, claim lifecycle.
func TestShardAPIRoundTrip(t *testing.T) {
	_, ts, _ := newShardServer(t)
	rc := store.NewRemote(ts.URL, nil)
	ctx := context.Background()
	key := shardKey(0)

	if _, err := rc.Get(ctx, key); !errors.Is(err, store.ErrMiss) {
		t.Fatalf("cold Get = %v, want ErrMiss", err)
	}
	if err := rc.Put(ctx, key, shardReport()); err != nil {
		t.Fatal(err)
	}
	rep, err := rc.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != 1234 || rep.Benchmark != "vpr" {
		t.Errorf("round trip mangled the report: %+v", rep)
	}

	// Claim lifecycle on a second, cold key.
	key2 := shardKey(1)
	held, err := rc.Claim(ctx, key2, "")
	if err != nil || held.State != store.ClaimGranted || !store.ValidClaimToken(held.Token) ||
		held.TTLMS != store.DefaultClaimTTL.Milliseconds() {
		t.Fatalf("first claim = %+v, %v, want granted with a token and the default TTL", held, err)
	}
	cr, err := rc.Claim(ctx, key2, "")
	if err != nil || cr.State != store.ClaimWait || cr.RetryAfterMS <= 0 {
		t.Fatalf("second claim = %+v, %v, want wait with hint", cr, err)
	}
	cr, err = rc.Claim(ctx, key2, held.Token)
	if err != nil || cr.State != store.ClaimGranted || cr.Token != held.Token {
		t.Fatalf("renewal = %+v, %v, want granted under the holder token", cr, err)
	}
	if err := rc.Put(ctx, key2, shardReport()); err != nil {
		t.Fatal(err)
	}
	cr, err = rc.Claim(ctx, key2, "")
	if err != nil || cr.State != store.ClaimDone {
		t.Fatalf("claim after put = %+v, %v, want done", cr, err)
	}

	// A holder's release frees the key at once.
	key3 := shardKey(2)
	held, _ = rc.Claim(ctx, key3, "")
	if err := rc.Unclaim(ctx, key3, held.Token); err != nil {
		t.Fatal(err)
	}
	if cr, _ := rc.Claim(ctx, key3, ""); cr.State != store.ClaimGranted {
		t.Fatalf("claim after the holder's release = %+v, want granted", cr)
	}
}

// TestShardAPIRejectsBadKeysAndBodies: invalid keys 400, schema-invalid
// reports 400 (a shard never stores what it cannot serve).
func TestShardAPIRejectsBadKeysAndBodies(t *testing.T) {
	_, ts, st := newShardServer(t)
	resp, err := http.Get(ts.URL + store.StorePathPrefix + "not-a-key!")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad key GET = %d, want 400", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPut,
		ts.URL+store.StorePathPrefix+shardKey(0), strings.NewReader(`{"schema":99}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("stale-schema PUT = %d, want 400", resp.StatusCode)
	}
	if st.Len() != 0 {
		t.Error("rejected PUT reached the store")
	}
}

// TestShardAPIDrainDiscipline: a draining shard answers 503 with
// Retry-After on every store endpoint, and the fleet client degrades
// (error, claim falls back to local simulation) instead of stalling.
func TestShardAPIDrainDiscipline(t *testing.T) {
	s, ts, _ := newShardServer(t)
	rc := store.NewRemote(ts.URL, nil)
	ctx := context.Background()
	s.Drain()

	resp, err := http.Get(ts.URL + store.StorePathPrefix + shardKey(0))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining GET = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 missing Retry-After")
	}
	if _, err := rc.Get(ctx, shardKey(0)); err == nil || errors.Is(err, store.ErrMiss) {
		t.Errorf("client Get against draining shard = %v, want non-miss error", err)
	}

	// Claim trouble degrades to local simulation at the fleet level.
	sh, err := store.NewSharded([]store.Shard{rc})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := sh.Claim(ctx, shardKey(0), "")
	if err != nil || cr.State != store.ClaimGranted || cr.Token != "" {
		t.Fatalf("claim against draining shard: %+v err=%v, want a token-less local grant", cr, err)
	}
}

// TestShardAPIStoreQueueBound: requests beyond StoreQueueDepth get 429 +
// Retry-After. The handler holds requests via a slow backend.
func TestShardAPIStoreQueueBound(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	slow := &gatedBackend{Backend: st, gate: gate, entered: entered}
	fn, _ := stubSim()
	eng := runner.New(runner.Options{Simulate: fn})
	s := New(Options{Runner: eng, Backend: slow, ShardAPI: true, StoreQueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(gate)

	go func() {
		resp, err := http.Get(ts.URL + store.StorePathPrefix + shardKey(0))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	resp, err := http.Get(ts.URL + store.StorePathPrefix + shardKey(1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow GET = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Error("429 body not a JSON error")
	}
}

// gatedBackend blocks every Get until the gate closes (admission tests).
type gatedBackend struct {
	store.Backend
	gate    chan struct{}
	entered chan struct{}
}

func (g *gatedBackend) Get(ctx context.Context, key string) (*metrics.Report, error) {
	g.entered <- struct{}{}
	<-g.gate
	return g.Backend.Get(ctx, key)
}

// TestFleetAntiStampede is the acceptance path: a 3-shard fleet over real
// HTTP, several front ends (each its own runner, memory cache, and
// flight group) hammering one cold key concurrently — exactly one
// simulation executes fleet-wide and every front end returns the result.
func TestFleetAntiStampede(t *testing.T) {
	const shards = 3
	shardList := make([]store.Shard, shards)
	for i := 0; i < shards; i++ {
		_, ts, _ := newShardServer(t)
		shardList[i] = store.NewRemote(ts.URL, nil)
	}

	var calls atomic.Int64
	slowSim := func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
		calls.Add(1)
		time.Sleep(30 * time.Millisecond) // hold the claim long enough to race
		return &metrics.Report{Benchmark: r.Benchmark, Scheme: "BaseP",
			Instructions: r.Instructions, Cycles: 777}, nil
	}

	const fronts = 4
	var wg sync.WaitGroup
	errs := make([]error, fronts)
	for i := 0; i < fronts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fleet, err := store.NewSharded(shardList)
			if err != nil {
				errs[i] = err
				return
			}
			eng := runner.New(runner.Options{
				Workers:  2,
				Simulate: slowSim,
				Cache: runner.NewTiered(
					runner.NewMemoryCache(0, nil),
					runner.NewStoreCache(fleet, runner.SourceShard),
				),
				Claimer: fleet,
			})
			run := config.NewRun("vpr", core.BaseP())
			run.Instructions = 1000
			rep, err := eng.Run(context.Background(), config.Default(), run)
			if err == nil && rep.Cycles != 777 {
				err = fmt.Errorf("front %d got wrong report: %+v", i, rep)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("front end %d: %v", i, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d simulations executed fleet-wide for one cold key, want exactly 1", got)
	}
}

// shardClock is a manually advanced clock for the shard's claim table.
type shardClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *shardClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *shardClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestClaimStaleHolderAfterTakeover is the injected failure "a claimant
// that dies while holding a claim", on a fake clock: the holder stops
// renewing, another claimant takes the key over after one TTL, the stale
// holder's late renewal is refused, and its late PUT is harmless — the
// bytes are the same content-addressed result, and the new holder's
// next renewal and every waiter just learn the result is done.
func TestClaimStaleHolderAfterTakeover(t *testing.T) {
	s, ts, st := newShardServer(t)
	clk := &shardClock{t: time.Unix(1000, 0)}
	const ttl = 15 * time.Second
	s.claims = store.NewClaimTableClock(ttl, clk.now)
	rc := store.NewRemote(ts.URL, nil)
	ctx := context.Background()
	key := shardKey(3)

	stale, err := rc.Claim(ctx, key, "")
	if err != nil || stale.State != store.ClaimGranted || stale.TTLMS != ttl.Milliseconds() {
		t.Fatalf("first claim = %+v, %v", stale, err)
	}
	clk.advance(ttl)
	heir, err := rc.Claim(ctx, key, "")
	if err != nil || heir.State != store.ClaimGranted || heir.Token == stale.Token {
		t.Fatalf("claim after one unrenewed TTL = %+v, %v, want a takeover under a new token", heir, err)
	}
	if cr, _ := rc.Claim(ctx, key, stale.Token); cr.State == store.ClaimGranted {
		t.Fatal("stale holder's late renewal granted")
	}
	if cr, _ := rc.Claim(ctx, key, ""); cr.State != store.ClaimWait {
		t.Fatalf("waiter during the takeover = %+v, want wait", cr)
	}

	// The stale holder finishes anyway and PUTs its result.
	if err := rc.Put(ctx, key, shardReport()); err != nil {
		t.Fatalf("stale holder's late PUT: %v", err)
	}
	for _, tok := range []string{heir.Token, ""} {
		if cr, _ := rc.Claim(ctx, key, tok); cr.State != store.ClaimDone {
			t.Errorf("claim (token %q) after the late PUT = %+v, want done", tok, cr)
		}
	}
	// The new holder's own PUT of the same result changes nothing.
	if err := rc.Put(ctx, key, shardReport()); err != nil {
		t.Fatalf("new holder's PUT: %v", err)
	}
	rep, err := st.Get(ctx, key)
	if err != nil || rep.Cycles != shardReport().Cycles {
		t.Fatalf("stored report after both PUTs = %+v, %v", rep, err)
	}
	if n := s.claims.Expired(); n != 1 {
		t.Errorf("claims expired = %d, want 1", n)
	}
}

// claimStatus sends one claim request with the given method and raw body.
func claimStatus(t testing.TB, url, method string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestClaimBodyStrict: the claim endpoint accepts an empty body or the
// canonical token object, and answers 400 to everything else.
func TestClaimBodyStrict(t *testing.T) {
	_, ts, _ := newShardServer(t)
	url := ts.URL + store.ClaimPathPrefix + shardKey(4)
	tok := strings.Repeat("ab", 16)
	for _, body := range []string{"", "{}", ` { "token" : "` + tok + `" } `} {
		if code := claimStatus(t, url, http.MethodPost, []byte(body)); code != http.StatusOK {
			t.Errorf("POST %q = %d, want 200", body, code)
		}
	}
	for _, body := range []string{
		" ", "null", "[]", `"x"`, "{", `{"token":5}`, `{"token":null}`, `{"token":""}`,
		`{"TOKEN":"` + tok + `"}`, `{"token":"` + tok + `","x":1}`, `{"token":"abc"}`,
		`{"token":"` + strings.ToUpper(tok) + `"}`, `{"token":"` + tok + `"}{}`,
		`{"token":"` + tok + `","token":"` + tok + `"}`, `{"token":"\u0061` + tok[1:] + `"}`,
		`{"token":"` + tok + `"` + strings.Repeat(" ", store.MaxClaimBody) + `}`,
	} {
		if code := claimStatus(t, url, http.MethodPost, []byte(body)); code != http.StatusBadRequest {
			t.Errorf("POST %q = %d, want 400", body, code)
		}
	}
	if code := claimStatus(t, url, http.MethodDelete, nil); code != http.StatusBadRequest {
		t.Errorf("DELETE without a token = %d, want 400", code)
	}
	if code := claimStatus(t, url, http.MethodDelete, []byte(`{"token":"`+tok+`"}`)); code != http.StatusNoContent {
		t.Errorf("DELETE with a token = %d, want 204", code)
	}
}

// wellFormedClaimBody is the fuzz oracle for claim bodies, written
// independently of the handler: empty, or — after removing JSON
// whitespace outside strings — exactly {} or {"token":"<32 hex>"}.
func wellFormedClaimBody(body []byte) bool {
	if len(body) == 0 {
		return true
	}
	if len(body) > store.MaxClaimBody {
		return false
	}
	var b []byte
	inString, escaped := false, false
	for _, c := range body {
		switch {
		case inString:
			b = append(b, c)
			if escaped {
				escaped = false
			} else if c == '\\' {
				escaped = true
			} else if c == '"' {
				inString = false
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
		default:
			b = append(b, c)
			if c == '"' {
				inString = true
			}
		}
	}
	if string(b) == "{}" {
		return true
	}
	const pre, post = `{"token":"`, `"}`
	if len(b) != len(pre)+32+len(post) || string(b[:len(pre)]) != pre || string(b[len(b)-len(post):]) != post {
		return false
	}
	for _, c := range b[len(pre) : len(pre)+32] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// FuzzClaimBody: whatever body arrives on the claim endpoint, the
// handler never panics, answers 200 to a well-formed body and 400 to
// any other.
func FuzzClaimBody(f *testing.F) {
	tok := strings.Repeat("0f", 16)
	for _, seed := range []string{"", "{}", `{"token":"` + tok + `"}`, ` {"token" :"` + tok + `"}` + "\n",
		"null", `{"token":""}`, `{"Token":"` + tok + `"}`, `{"token":"` + tok + `"}{}`, "\x00", `{"token":"\u0030"}`} {
		f.Add([]byte(seed))
	}
	s, _, _ := newShardServer(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, store.ClaimPathPrefix+shardKey(5), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		want := http.StatusBadRequest
		if wellFormedClaimBody(body) {
			want = http.StatusOK
		}
		if rec.Code != want {
			t.Fatalf("POST %q = %d, want %d (%s)", body, rec.Code, want, rec.Body.Bytes())
		}
	})
}
