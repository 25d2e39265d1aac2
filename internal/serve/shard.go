// shard.go is the server half of the shard protocol: the /store/v1/
// endpoints a fleet of front ends reads and writes through
// (internal/store.Remote is the client half, store.Sharded the fleet
// view). Mounted only with Options.ShardAPI.
//
// Admission is separate from the simulation queue: a store hit costs one
// disk read, not one simulation, so the bound is much deeper
// (StoreQueueDepth) — a load test replaying a million lookups must not
// starve, or be starved by, the simulation endpoints. The discipline is
// the same: queue full → 429 + Retry-After, draining → 503 + Retry-After.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/metrics"
	"repro/internal/store"
)

// claimRetryHintMS is the poll interval hint sent with "wait" claim
// responses. Simulations take tens of milliseconds to minutes; 50ms keeps
// waiters prompt without hammering the shard.
const claimRetryHintMS = 50

// tryAdmitStore is tryAdmit for the store endpoints: same discipline,
// separate (deeper) queue.
func (s *Server) tryAdmitStore(w http.ResponseWriter) (release func(), ok bool) {
	if s.eng.Draining() {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, errors.New("shard draining"))
		return nil, false
	}
	select {
	case s.storeAdmit <- struct{}{}:
		s.storeInflight.Add(1)
		return func() {
			s.storeInflight.Add(-1)
			<-s.storeAdmit
		}, true
	default:
		s.storeRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("store queue full (%d in flight); retry later", cap(s.storeAdmit)))
		return nil, false
	}
}

// storeKey validates the {key} path segment once for every handler.
func storeKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid store key %q", key))
		return "", false
	}
	return key, true
}

// handleStoreGet serves GET /store/v1/{key}: the stored report, or 404
// for a miss. Real backend trouble (sick disk) is 500 — the client
// counts it instead of mistaking it for an empty shard.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	release, ok := s.tryAdmitStore(w)
	if !ok {
		return
	}
	defer release()
	key, ok := storeKey(w, r)
	if !ok {
		return
	}
	rep, err := s.backend.Get(r.Context(), key)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, rep)
	case errors.Is(err, store.ErrMiss):
		writeError(w, http.StatusNotFound, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// handleStorePut serves PUT /store/v1/{key}: persist the report and clear
// any claim on the key — a landed result is the claim protocol's
// success path, so waiters' next poll answers "done".
func (s *Server) handleStorePut(w http.ResponseWriter, r *http.Request) {
	release, ok := s.tryAdmitStore(w)
	if !ok {
		return
	}
	defer release()
	key, ok := storeKey(w, r)
	if !ok {
		return
	}
	var rep metrics.Report
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&rep); err != nil {
		// Schema mismatches land here too: a shard must never store a
		// report it would refuse to serve.
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding report: %w", err))
		return
	}
	if err := s.backend.Put(r.Context(), key, &rep); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if s.claims != nil {
		s.claims.Release(key, "")
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleClaim serves POST /store/v1/claim/{key}: the fleet-wide claim
// election. If the result already exists the answer is "done" (re-Get
// it). A request without a token asks for a new claim: the first
// claimant is "granted" a holder token and the claim TTL, everyone else
// "wait"s with a poll hint. A request carrying the holder's token renews
// the claim by one TTL ("granted") or learns it was lost ("wait"). A
// granted claim is cleared by a PUT of the result, the holder's DELETE,
// or the TTL running out on a holder that stopped renewing.
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	release, ok := s.tryAdmitStore(w)
	if !ok {
		return
	}
	defer release()
	key, ok := storeKey(w, r)
	if !ok {
		return
	}
	req, err := decodeClaimRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := s.backend.Get(r.Context(), key); err == nil {
		writeJSON(w, http.StatusOK, store.ClaimResponse{State: store.ClaimDone})
		return
	} else if !errors.Is(err, store.ErrMiss) {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	token := req.Token
	if token == "" {
		token, _ = s.claims.Claim(key)
	} else if !s.claims.Renew(key, token) {
		token = ""
	}
	if token == "" {
		writeJSON(w, http.StatusOK, store.ClaimResponse{State: store.ClaimWait, RetryAfterMS: claimRetryHintMS})
		return
	}
	writeJSON(w, http.StatusOK, store.ClaimResponse{
		State: store.ClaimGranted,
		Token: token,
		TTLMS: s.claims.TTL().Milliseconds(),
	})
}

// handleUnclaim serves DELETE /store/v1/claim/{key}: the holder's
// simulation failed, free the waiters early. Only the holder's token
// releases the claim.
func (s *Server) handleUnclaim(w http.ResponseWriter, r *http.Request) {
	release, ok := s.tryAdmitStore(w)
	if !ok {
		return
	}
	defer release()
	key, ok := storeKey(w, r)
	if !ok {
		return
	}
	req, err := decodeClaimRequest(w, r)
	if err == nil && req.Token == "" {
		err = errors.New("claim release needs the holder token")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.claims.Release(key, req.Token)
	w.WriteHeader(http.StatusNoContent)
}

// decodeClaimRequest strictly decodes a claim request body of at most
// store.MaxClaimBody bytes: empty, or — up to JSON whitespace — exactly
// the encoding of a store.ClaimRequest whose token is well-formed.
// Unknown or duplicate fields, other spellings of the field name,
// escapes, null, and trailing data are all malformed.
func decodeClaimRequest(w http.ResponseWriter, r *http.Request) (store.ClaimRequest, error) {
	var req store.ClaimRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, store.MaxClaimBody))
	if err != nil {
		return req, fmt.Errorf("reading claim body: %w", err)
	}
	if len(body) == 0 {
		return req, nil
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		return req, fmt.Errorf("decoding claim body: %w", err)
	}
	if err := json.Unmarshal(compact.Bytes(), &req); err != nil {
		return req, fmt.Errorf("decoding claim body: %w", err)
	}
	if canon, err := json.Marshal(req); err != nil || !bytes.Equal(canon, compact.Bytes()) {
		return req, errors.New(`decoding claim body: want {"token":"<32 hex digits>"} or {}`)
	}
	if req.Token != "" && !store.ValidClaimToken(req.Token) {
		return req, fmt.Errorf("malformed claim token %q", req.Token)
	}
	return req, nil
}
