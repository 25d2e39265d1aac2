package store

import (
	"context"
	"errors"

	"repro/internal/metrics"
)

// ErrMiss is the typed miss: the backend holds nothing for the key. Every
// Backend returns an error wrapping ErrMiss for a clean miss, so callers
// distinguish "simulate it" from "the backend is sick" with errors.Is
// instead of a lossy bool.
var ErrMiss = errors.New("store: miss")

// Backend is the storage seam every result store implements: the local
// disk store, the HTTP remote-shard client, and the consistent-hashed
// Sharded fleet view are interchangeable behind it.
//
// Contract:
//
//   - Get returns the report for key, an error wrapping ErrMiss when the
//     backend holds nothing, or another error when the backend could not
//     answer (sick disk, unreachable shard). A non-miss error means the
//     caller may re-simulate, but the failure must be surfaced and
//     counted — never folded into a silent miss.
//   - Put stores the report. Failures do not invalidate a previous entry.
//   - Implementations are safe for concurrent use and never mutate a
//     report after Put returns.
//   - Stats is a point-in-time snapshot of the backend's counters.
//   - Drain flushes or detaches whatever background machinery the backend
//     owns. Gets and Puts must keep working during and after Drain: the
//     repo-wide drain discipline is that executing simulations finish AND
//     persist.
type Backend interface {
	Get(ctx context.Context, key string) (*metrics.Report, error)
	Put(ctx context.Context, key string, rep *metrics.Report) error
	Stats() Stats
	Drain()
}

// Claimer is the optional fleet-wide claim seam: a Backend that can
// decide "who simulates this key" across every client of the fleet (the
// Sharded backend, via the owning shard's claim endpoint).
//
// Claim asks once and never waits. With token "" it asks for a new
// claim: ClaimGranted (simulate, Put, and renew with the returned Token
// every TTL/3 meanwhile), ClaimWait (another client holds it: poll again
// after RetryAfterMS, without holding a worker slot), or ClaimDone (the
// result exists: re-Get). With the holder's token it renews the claim;
// any answer but ClaimGranted means the claim is lost. One shard node
// (a Shard) returns transport errors as errors; the Sharded fleet view
// grants a claimant that cannot reach the owner locally, with no token
// — wasted work at worst, never a wrong result, because keys are
// content-addressed — so its error is non-nil only for the caller's
// cancellation.
//
// Unclaim releases a claim held under token, best-effort: the
// simulation failed or its Put never landed, so waiters need not ride
// out the TTL.
type Claimer interface {
	Claim(ctx context.Context, key, token string) (ClaimResponse, error)
	Unclaim(ctx context.Context, key, token string) error
}
