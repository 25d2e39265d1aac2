package store

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for claim-expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestClaimTableSingleWinner(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tab := NewClaimTableClock(time.Minute, clk.now)
	key := keyN(0)

	token, _ := tab.Claim(key)
	if !ValidClaimToken(token) {
		t.Fatalf("first claim token = %q, want a granted holder token", token)
	}
	second, remaining := tab.Claim(key)
	if second != "" {
		t.Fatal("second claim granted while the first is live")
	}
	if remaining <= 0 || remaining > time.Minute {
		t.Errorf("remaining = %v, want (0, 1m]", remaining)
	}
	// A different key is independent, under a different token.
	other, _ := tab.Claim(keyN(1))
	if other == "" {
		t.Error("claim on an unrelated key blocked")
	}
	if other == token {
		t.Error("two grants share a holder token")
	}
	if g, w := tab.Granted(), tab.Waited(); g != 2 || w != 1 {
		t.Errorf("granted=%d waited=%d, want 2 and 1", g, w)
	}
}

// TestClaimExpiry: a crashed claimant's claim lapses after the TTL and
// the next claimant takes over — the fleet stalls for at most one TTL.
func TestClaimExpiry(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tab := NewClaimTableClock(time.Minute, clk.now)
	key := keyN(0)
	if token, _ := tab.Claim(key); token == "" {
		t.Fatal("first claim not granted")
	}
	clk.advance(59 * time.Second)
	if token, _ := tab.Claim(key); token != "" {
		t.Fatal("claim lapsed before its TTL")
	}
	clk.advance(2 * time.Second)
	if token, _ := tab.Claim(key); token == "" {
		t.Fatal("expired claim not retaken")
	}
	if n := tab.Expired(); n != 1 {
		t.Errorf("Expired = %d, want 1", n)
	}
}

// TestClaimRelease: a landed result releases any holder's claim, a
// holder's own release frees the key, and another holder's token does
// not.
func TestClaimRelease(t *testing.T) {
	tab := NewClaimTable(time.Minute)
	key := keyN(0)
	token, _ := tab.Claim(key)
	if token == "" {
		t.Fatal("first claim not granted")
	}
	tab.Release(key, "")
	token, _ = tab.Claim(key)
	if token == "" {
		t.Fatal("released claim not retaken")
	}
	tab.Release(key, newClaimToken())
	if again, _ := tab.Claim(key); again != "" {
		t.Fatal("a foreign token released the holder's claim")
	}
	tab.Release(key, token)
	if again, _ := tab.Claim(key); again == "" {
		t.Fatal("the holder's release did not free the key")
	}
	// Releasing an absent claim is a no-op.
	tab.Release(keyN(1), "")
}

// TestClaimSweep: expired entries are swept so the table does not grow
// with the keyspace.
func TestClaimSweep(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tab := NewClaimTableClock(time.Second, clk.now)
	for i := 0; i < 100; i++ {
		tab.Claim(syntheticKey(i))
	}
	clk.advance(2 * time.Second)
	// Drive past the sweep threshold.
	for i := 0; i < 1024; i++ {
		tab.Claim(syntheticKey(200 + i))
	}
	clk.advance(2 * time.Second)
	for i := 0; i < 1024; i++ {
		tab.Claim(syntheticKey(2000 + i))
	}
	if n := tab.Len(); n > 1100 {
		t.Errorf("table holds %d entries after sweeps; expired claims not collected", n)
	}
}

// TestClaimRenewalKeepsWaitersOut: a holder that renews every TTL/3
// keeps its claim for three full TTLs and beyond; every other claimant
// waits the whole time.
func TestClaimRenewalKeepsWaitersOut(t *testing.T) {
	const ttl = 15 * time.Second
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tab := NewClaimTableClock(ttl, clk.now)
	key := keyN(0)
	token, _ := tab.Claim(key)
	if token == "" {
		t.Fatal("first claim not granted")
	}
	for elapsed := time.Duration(0); elapsed < 3*ttl; elapsed += ttl / 3 {
		clk.advance(ttl / 3)
		if other, _ := tab.Claim(key); other != "" {
			t.Fatalf("waiter granted %v into a renewed claim", elapsed+ttl/3)
		}
		if !tab.Renew(key, token) {
			t.Fatalf("live holder's renewal refused %v in", elapsed+ttl/3)
		}
	}
	if n := tab.Expired(); n != 0 {
		t.Errorf("Expired = %d for a renewed claim, want 0", n)
	}
}

// TestClaimTakeoverAfterOneTTL: a holder that stops renewing keeps its
// claim for exactly one TTL from its last renewal, then the next
// claimant takes over under a new token; the stale holder's late
// renewal is refused.
func TestClaimTakeoverAfterOneTTL(t *testing.T) {
	const ttl = 15 * time.Second
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tab := NewClaimTableClock(ttl, clk.now)
	key := keyN(0)
	stale, _ := tab.Claim(key)
	clk.advance(ttl / 3)
	if !tab.Renew(key, stale) {
		t.Fatal("live holder's renewal refused")
	}
	// The holder dies here: no more renewals.
	clk.advance(ttl - time.Nanosecond)
	if other, _ := tab.Claim(key); other != "" {
		t.Fatal("claim taken over before one TTL without renewal")
	}
	clk.advance(time.Nanosecond)
	heir, _ := tab.Claim(key)
	if heir == "" {
		t.Fatal("claim not taken over after exactly one TTL without renewal")
	}
	if heir == stale {
		t.Fatal("takeover reused the stale holder's token")
	}
	if tab.Renew(key, stale) {
		t.Fatal("stale holder's late renewal accepted after takeover")
	}
	if !tab.Renew(key, heir) {
		t.Fatal("new holder's renewal refused")
	}
	if n := tab.Expired(); n != 1 {
		t.Errorf("Expired = %d, want 1", n)
	}
}

// TestClaimRenewAfterLapseRefused: a renewal that arrives after the
// claim lapsed is refused even when nobody has taken the key over — the
// claim is gone, and a later claimant may already be on its way.
func TestClaimRenewAfterLapseRefused(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tab := NewClaimTableClock(time.Second, clk.now)
	key := keyN(0)
	token, _ := tab.Claim(key)
	clk.advance(time.Second)
	if tab.Renew(key, token) {
		t.Fatal("renewal of a lapsed claim accepted")
	}
	if tab.Renew(keyN(1), token) {
		t.Fatal("renewal of an unclaimed key accepted")
	}
}

func TestValidClaimToken(t *testing.T) {
	if tok := newClaimToken(); !ValidClaimToken(tok) {
		t.Errorf("fresh token %q rejected", tok)
	}
	for _, bad := range []string{"", "abc", "0123456789abcdef0123456789ABCDEF", "0123456789abcdef0123456789abcdeg", "0123456789abcdef0123456789abcdef0"} {
		if ValidClaimToken(bad) {
			t.Errorf("ValidClaimToken(%q) = true", bad)
		}
	}
}
