// remote.go is the client half of the shard protocol: a Backend that
// forwards Get/Put/Claim to one icrd shard's /store/v1/ endpoints. The
// server half lives in internal/serve.
//
// Protocol (all bodies JSON):
//
//	GET    /store/v1/{key}        200 report | 404 miss | 503 draining
//	PUT    /store/v1/{key}        204 stored (also clears any claim)
//	POST   /store/v1/claim/{key}  body {"token":T} or empty
//	                              200 {"state":"granted"|"wait"|"done",
//	                                   "token":T,"ttl_ms":N,
//	                                   "retry_after_ms":N}
//	DELETE /store/v1/claim/{key}  body {"token":T}; 204 released
//
// A claim POST without a token asks for a new claim; with the holder's
// token it renews the claim (granted) or reports it lost (wait or
// done). Malformed claim bodies are 400. 429/503 responses carry
// Retry-After, the same admission discipline as the simulation
// endpoints.
package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/metrics"
)

// StorePathPrefix is where the shard endpoints mount.
const StorePathPrefix = "/store/v1/"

// ClaimPathPrefix is where the claim endpoint mounts.
const ClaimPathPrefix = "/store/v1/claim/"

// ClaimState is the claim endpoint's verdict.
type ClaimState string

const (
	// ClaimGranted: the caller now owns the simulation for this key.
	ClaimGranted ClaimState = "granted"
	// ClaimWait: another client holds the claim; poll again after
	// RetryAfterMS.
	ClaimWait ClaimState = "wait"
	// ClaimDone: the result already exists; re-Get instead of simulating.
	ClaimDone ClaimState = "done"
)

// ClaimRequest is the POST and DELETE /store/v1/claim/{key} request
// body. Token is "" (or the body empty) to ask for a new claim, and the
// holder's token to renew or release one.
type ClaimRequest struct {
	Token string `json:"token,omitempty"`
}

// MaxClaimBody bounds a claim request body. A well-formed one is a
// 32-digit token in a one-member object; the bound leaves room for
// whitespace, not for payloads.
const MaxClaimBody = 256

// ClaimResponse is the POST /store/v1/claim/{key} reply body. Token and
// TTLMS accompany a grant: the holder renews with Token every TTLMS/3.
// RetryAfterMS accompanies a wait.
type ClaimResponse struct {
	State        ClaimState `json:"state"`
	Token        string     `json:"token,omitempty"`
	TTLMS        int64      `json:"ttl_ms,omitempty"`
	RetryAfterMS int64      `json:"retry_after_ms,omitempty"`
}

// maxReportBody bounds report and claim response bodies, mirroring the
// serve layer's request bound.
const maxReportBody = 1 << 20

// Remote is the Backend view of one remote shard. It is stateless beyond
// counters; every operation is one HTTP round trip. Safe for concurrent
// use.
type Remote struct {
	base string // http://host:port, no trailing slash
	hc   *http.Client

	hits       atomic.Uint64
	misses     atomic.Uint64
	puts       atomic.Uint64
	readErrors atomic.Uint64
	putErrors  atomic.Uint64
}

// Backend conformance.
var _ Backend = (*Remote)(nil)

// defaultRemoteClient is shared by every Remote built without an explicit
// client: one transport with a deep idle-connection pool, so thousands of
// synthetic load-test clients multiplex over a bounded connection set.
var defaultRemoteClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 256,
	},
}

// NewRemote returns a client for the shard at base (scheme://host:port;
// a bare host:port gets http://). hc may be nil for a shared default
// tuned for many concurrent callers.
func NewRemote(base string, hc *http.Client) *Remote {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	if hc == nil {
		hc = defaultRemoteClient
	}
	return &Remote{base: base, hc: hc}
}

// Name returns the shard's base URL: its identity on the ring.
func (r *Remote) Name() string { return r.base }

// Get fetches the report for key from the shard. 404 is ErrMiss; any
// transport failure or non-2xx status is surfaced (and counted) so a dead
// shard is never mistaken for an empty one.
func (r *Remote) Get(ctx context.Context, key string) (*metrics.Report, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+StorePathPrefix+key, nil)
	if err != nil {
		return nil, fmt.Errorf("store: shard %s: %w", r.base, err)
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		r.readErrors.Add(1)
		return nil, fmt.Errorf("store: shard %s: %w", r.base, err)
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		r.misses.Add(1)
		return nil, ErrMiss
	default:
		r.readErrors.Add(1)
		return nil, fmt.Errorf("store: shard %s: GET %s: status %d", r.base, key, resp.StatusCode)
	}
	var rep metrics.Report
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxReportBody)).Decode(&rep); err != nil {
		if errors.Is(err, metrics.ErrReportSchema) {
			// A shard running an older build served a stale-schema report:
			// invalid, not sick. Degrade to a miss so the caller
			// re-simulates under the current schema.
			r.misses.Add(1)
			return nil, fmt.Errorf("%w: %v", ErrMiss, err)
		}
		r.readErrors.Add(1)
		return nil, fmt.Errorf("store: shard %s: decoding report: %w", r.base, err)
	}
	r.hits.Add(1)
	return &rep, nil
}

// Put uploads the report for key to the shard.
func (r *Remote) Put(ctx context.Context, key string, rep *metrics.Report) error {
	if rep == nil {
		return errors.New("store: nil report")
	}
	body, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, r.base+StorePathPrefix+key, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("store: shard %s: %w", r.base, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(req)
	if err != nil {
		r.putErrors.Add(1)
		return fmt.Errorf("store: shard %s: %w", r.base, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		r.putErrors.Add(1)
		return fmt.Errorf("store: shard %s: PUT %s: status %d", r.base, key, resp.StatusCode)
	}
	r.puts.Add(1)
	return nil
}

// Claim asks the shard's claim endpoint who should simulate key (token
// "") or renews the claim held under token.
func (r *Remote) Claim(ctx context.Context, key, token string) (ClaimResponse, error) {
	req, err := r.claimRequest(ctx, http.MethodPost, key, token)
	if err != nil {
		return ClaimResponse{}, err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return ClaimResponse{}, fmt.Errorf("store: shard %s: %w", r.base, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return ClaimResponse{}, fmt.Errorf("store: shard %s: claim %s: status %d", r.base, key, resp.StatusCode)
	}
	var cr ClaimResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxReportBody)).Decode(&cr); err != nil {
		return ClaimResponse{}, fmt.Errorf("store: shard %s: decoding claim: %w", r.base, err)
	}
	return cr, nil
}

// Unclaim releases the claim held under token (the simulation failed and
// no Put will clear it). Best-effort: an error just means waiters ride
// out the claim TTL.
func (r *Remote) Unclaim(ctx context.Context, key, token string) error {
	req, err := r.claimRequest(ctx, http.MethodDelete, key, token)
	if err != nil {
		return err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return fmt.Errorf("store: shard %s: %w", r.base, err)
	}
	drainClose(resp.Body)
	return nil
}

// claimRequest builds a claim endpoint request; a non-empty token rides
// in the ClaimRequest body.
func (r *Remote) claimRequest(ctx context.Context, method, key, token string) (*http.Request, error) {
	var body io.Reader
	if token != "" {
		b, err := json.Marshal(ClaimRequest{Token: token})
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.base+ClaimPathPrefix+key, body)
	if err != nil {
		return nil, fmt.Errorf("store: shard %s: %w", r.base, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// Stats reports the client-side counters for this shard. Entries/Bytes
// stay zero: occupancy lives on the shard, visible in its /debug/vars.
func (r *Remote) Stats() Stats {
	return Stats{
		Hits:       r.hits.Load(),
		Misses:     r.misses.Load(),
		Puts:       r.puts.Load(),
		ReadErrors: r.readErrors.Load(),
		PutErrors:  r.putErrors.Load(),
	}
}

// Drain implements Backend: the client has no background work, so it just
// releases idle connections.
func (r *Remote) Drain() { r.hc.CloseIdleConnections() }

// drainClose consumes and closes a response body so the connection is
// reusable.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, maxReportBody)) //icrvet:ignore droppederr best-effort drain for connection reuse
	body.Close()                                             //icrvet:ignore droppederr response body close has nothing actionable to report
}
