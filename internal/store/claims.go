package store

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// DefaultClaimTTL bounds how long a granted simulation claim shields a
// key from other claimants without a renewal. The holder renews every
// TTL/3 while it executes, so a live holder keeps its claim for as long
// as the simulation runs; a holder that dies (or loses its network)
// stops renewing, and the next claimant takes over after at most one
// TTL.
const DefaultClaimTTL = 15 * time.Second

// claimTokenBytes is the entropy of a holder token; tokens travel as
// 2*claimTokenBytes lowercase hex digits.
const claimTokenBytes = 16

// ValidClaimToken reports whether tok has the shape of a holder token.
func ValidClaimToken(tok string) bool {
	if len(tok) != 2*claimTokenBytes {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ClaimTable is the shard-server side of the fleet-wide claim protocol:
// at most one live claim exists per key, so of all the clients that miss
// on a cold key, exactly one simulates it and the rest wait for the
// result to appear. It is the cross-fleet generalization of the runner's
// in-process singleflight, and — because waiters give their worker slot
// back while they wait — what spreads one sweep POSTed to several nodes
// across them.
//
// A grant hands the holder a random token. Renew with that token extends
// the claim by one TTL; a claim that is not renewed lapses and the next
// Claim takes it over under a new token, after which the old token is
// refused. The table is in-memory and per-shard: a claim is only
// meaningful on the key's owning shard, and losing it on restart is safe
// (duplicate simulation, never wrong results).
type ClaimTable struct {
	ttl time.Duration
	now func() time.Time

	mu     sync.Mutex
	claims map[string]heldClaim
	ops    int // Claim calls since the last expired-entry sweep
	stats  struct {
		granted uint64
		waited  uint64
		expired uint64
	}
}

// heldClaim is one key's current holder.
type heldClaim struct {
	token string
	exp   time.Time
}

// NewClaimTable returns a table whose claims expire after ttl (<= 0 means
// DefaultClaimTTL).
func NewClaimTable(ttl time.Duration) *ClaimTable {
	return NewClaimTableClock(ttl, time.Now)
}

// NewClaimTableClock is NewClaimTable with an injectable clock (tests).
func NewClaimTableClock(ttl time.Duration, now func() time.Time) *ClaimTable {
	if ttl <= 0 {
		ttl = DefaultClaimTTL
	}
	return &ClaimTable{ttl: ttl, now: now, claims: make(map[string]heldClaim)}
}

// TTL returns how long a claim lives without a renewal.
func (t *ClaimTable) TTL() time.Duration { return t.ttl }

// Claim attempts to claim key. It returns the new holder's token when
// no live claim existed, or "" with the time remaining on the current
// holder's claim.
func (t *ClaimTable) Claim(key string) (token string, remaining time.Duration) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	if t.ops >= 1024 {
		t.ops = 0
		for k, c := range t.claims {
			if !c.exp.After(now) {
				delete(t.claims, k)
				t.stats.expired++
			}
		}
	}
	if c, ok := t.claims[key]; ok {
		if c.exp.After(now) {
			t.stats.waited++
			return "", c.exp.Sub(now)
		}
		t.stats.expired++
	}
	token = newClaimToken()
	t.claims[key] = heldClaim{token: token, exp: now.Add(t.ttl)}
	t.stats.granted++
	return token, 0
}

// Renew extends the claim on key held under token by one TTL from now.
// It returns false when token no longer holds a live claim: the claim
// lapsed, was released, or was taken over by another claimant.
func (t *ClaimTable) Renew(key, token string) bool {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.claims[key]
	if !ok || c.token != token || !c.exp.After(now) {
		return false
	}
	c.exp = now.Add(t.ttl)
	t.claims[key] = c
	return true
}

// Release drops the claim on key: any holder's when token is "" (the
// result landed), otherwise only the claim held under token (a holder
// giving up). Releasing an absent claim is a no-op.
func (t *ClaimTable) Release(key, token string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.claims[key]; ok && (token == "" || c.token == token) {
		delete(t.claims, key)
	}
}

// Len returns the number of claims in the table, counting expired ones
// not yet swept.
func (t *ClaimTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.claims)
}

// Granted reports how many claims were granted (renewals not counted).
func (t *ClaimTable) Granted() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats.granted
}

// Waited reports how many Claim calls found the key already claimed.
func (t *ClaimTable) Waited() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats.waited
}

// Expired reports how many claims lapsed without a release: their
// holder stopped renewing (died, or lost the shard) and the claim was
// taken over or swept.
func (t *ClaimTable) Expired() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats.expired
}

// newClaimToken returns a fresh random holder token.
func newClaimToken() string {
	var b [claimTokenBytes]byte
	rand.Read(b[:]) //icrvet:ignore droppederr crypto/rand.Read never returns an error on supported platforms
	return hex.EncodeToString(b[:])
}
