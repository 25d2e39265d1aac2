package core

import "testing"

// TestLineArrayLinksFollowEveryInstall reuses resident lines through each
// installer without invalidating them first — the API allows it — and
// checks after every step that the tag words and replica links still
// match the lines: an installer must drop the links the line had before.
func TestLineArrayLinksFollowEveryInstall(t *testing.T) {
	// 8 sets × 2 ways; a block's candidate sets are home and home+2.
	a := NewLineArray(1024, 2, 64, ParityProt, 0)
	a.setCandidates([]int{0, 2})
	data := make([]byte, 64)
	way := func(set, w int) *Line { return &a.Set(set)[w] }
	check := func(step string, wantLinks int, p *Line) {
		t.Helper()
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if p != nil {
			if got := len(a.linked(p, nil)); got != wantLinks {
				t.Fatalf("%s: primary of block %d has %d links, want %d", step, p.BlockAddr, got, wantLinks)
			}
		}
	}

	const blk = 1 // home set 1, candidates 1 and 3
	p := way(1, 0)
	a.Fill(p, blk, data)
	check("fill primary", 0, p)
	a.InstallReplica(way(3, 0), p)
	check("replica at distance 2", 1, p)
	a.InstallGuest(way(1, 1), blk, data)
	check("guest in the home set beside its primary", 2, p)

	a.Fill(way(3, 0), 3, data)
	check("fill over a linked replica", 1, p)
	a.InstallReplica(way(1, 1), way(3, 0))
	check("replica of block 3 over the linked guest", 0, p)
	a.InstallReplica(way(3, 1), p)
	check("replica again at distance 2", 1, p)
	a.InstallGuest(way(3, 1), 11, data)
	check("guest of block 11 over a linked replica", 0, p)

	a.InstallReplica(way(3, 1), p)
	check("replica for the next step", 1, p)
	a.Fill(p, 9, data)
	check("fill over a primary that owns links", 0, p)
	a.InstallReplica(way(3, 1), p)
	a.InstallGuest(p, 17, data)
	check("guest over a primary that owns links", 0, nil)
}
