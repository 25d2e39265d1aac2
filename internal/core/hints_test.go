package core

import "testing"

func TestRangePolicyMatching(t *testing.T) {
	ranges := []AddrRange{
		{Start: 0x1000, End: 0x2000, Hint: Hint{Replicate: false}},
		{Start: 0x2000, End: 0x3000, Hint: Hint{Replicate: true, Replicas: 2}},
		{Start: 0x2800, End: 0x4000, Hint: Hint{Replicate: false}},
	}
	cases := []struct {
		addr uint64
		want Hint
	}{
		{0x0fff, Hint{Replicate: true}},              // in no range
		{0x1000, Hint{Replicate: false}},             // first range start
		{0x1fff, Hint{Replicate: false}},             // first range end-1
		{0x2000, Hint{Replicate: true, Replicas: 2}}, // second range
		{0x2800, Hint{Replicate: true, Replicas: 2}}, // the first match wins
		{0x3000, Hint{Replicate: false}},             // third range only
		{0x4000, Hint{Replicate: true}},              // past every range
	}
	for _, c := range cases {
		if got := hintFor(ranges, c.addr); got != c.want {
			t.Errorf("hintFor(%#x) = %+v, want %+v", c.addr, got, c.want)
		}
	}
	if got := hintFor(nil, 0x1000); got != (Hint{Replicate: true}) {
		t.Errorf("no hints: hintFor = %+v, want replicate", got)
	}
}

func TestHintExemptsBlocksFromReplication(t *testing.T) {
	noRepl := addrOfBlock(1)
	yesRepl := addrOfBlock(2)
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Hints = []AddrRange{{Start: noRepl, End: noRepl + 64, Hint: Hint{Replicate: false}}}
	})
	c.Store(0, noRepl)
	c.Store(1, yesRepl)
	if got := c.ReplicaCount(noRepl); got != 0 {
		t.Errorf("exempted block replicated %d times", got)
	}
	if got := c.ReplicaCount(yesRepl); got != 1 {
		t.Errorf("non-exempt block replica count = %d, want 1", got)
	}
	// The exempted store still counts as an attempt that created nothing.
	s := c.Stats()
	if s.ReplAttempts != 2 || s.ReplSuccesses != 1 {
		t.Errorf("stats = attempts %d successes %d, want 2/1", s.ReplAttempts, s.ReplSuccesses)
	}
}

func TestHintRaisesReplicaQuota(t *testing.T) {
	a := addrOfBlock(1)
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.Distances = []int{4, 2} // room for two replicas
		cfg.Repl.Replicas = 1            // default quota 1
		cfg.Hints = []AddrRange{{Start: a, End: a + 64, Hint: Hint{Replicate: true, Replicas: 2}}}
	})
	c.Store(0, a)
	if got := c.ReplicaCount(a); got != 2 {
		t.Errorf("hinted block replica count = %d, want 2", got)
	}
	b := addrOfBlock(9) // same home set, default quota
	c.Store(1, b)
	if got := c.ReplicaCount(b); got != 1 {
		t.Errorf("default block replica count = %d, want 1", got)
	}
}

func TestHintedCacheInvariants(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Hints = []AddrRange{{Start: 0, End: addrOfBlock(8), Hint: Hint{Replicate: false}}}
	})
	for i := 0; i < 200; i++ {
		a := addrOfBlock(i % 24)
		if i%3 == 0 {
			c.Store(uint64(i), a)
		} else {
			c.Load(uint64(i), a)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
