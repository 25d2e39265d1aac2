package config

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
)

func TestParseTwoTier(t *testing.T) {
	cases := []struct {
		spec string
		want TwoTier
	}{
		{"", TwoTier{}},
		{"off", TwoTier{}},
		{"parity", TwoTier{Protect: core.ParityProt}},
		{"ecc", TwoTier{Protect: core.ECCProt}},
		{"icr", TwoTier{Protect: core.ParityProt, Replicate: true, Victim: core.DeadOnly}},
		{"icr-ecc", TwoTier{Protect: core.ECCProt, Replicate: true, Victim: core.DeadOnly}},
		{
			"protect=P,replicate=true,victim=dead-first,decay=1000,cross=true,latency=40",
			TwoTier{
				Protect: core.ParityProt, Replicate: true, Victim: core.DeadFirst,
				DecayWindow: 1000, CrossTier: true, ExtraLatency: 40,
			},
		},
		// Injection by probability alone gets the default model — the CLI
		// contract the L1's -fault-prob/-fault-model pair has always had.
		{
			"protect=ecc,prob=1e-3,faultseed=3",
			TwoTier{
				Protect: core.ECCProt,
				Fault:   FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 3},
			},
		},
		// Spaces around elements, keys and values are ignored, as in the
		// -sample and -adapt specs.
		{
			"protect=ecc, replicate=true , victim = replica-first",
			TwoTier{Protect: core.ECCProt, Replicate: true, Victim: core.ReplicaFirst},
		},
		// The two-tier driver's protected points, spelled as specs.
		{
			"protect=parity,fault=random,prob=1e-3,faultseed=11",
			TwoTier{Protect: core.ParityProt, Fault: FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 11}},
		},
		{
			"protect=ecc,fault=random,prob=1e-3,faultseed=11",
			TwoTier{Protect: core.ECCProt, Fault: FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 11}},
		},
		{
			"protect=parity,replicate=true,victim=dead-first,decay=1000,fault=random,prob=1e-3,faultseed=11",
			TwoTier{
				Protect: core.ParityProt, Replicate: true, Victim: core.DeadFirst, DecayWindow: 1000,
				Fault: FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 11},
			},
		},
		{
			"protect=parity,replicate=true,victim=dead-first,decay=1000,cross=true,fault=random,prob=1e-3,faultseed=11",
			TwoTier{
				Protect: core.ParityProt, Replicate: true, Victim: core.DeadFirst, DecayWindow: 1000, CrossTier: true,
				Fault: FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 11},
			},
		},
	}
	for _, tc := range cases {
		got, err := ParseTwoTier(tc.spec)
		if err != nil {
			t.Errorf("ParseTwoTier(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseTwoTier(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseTwoTierRejects(t *testing.T) {
	for _, spec := range []string{
		"bogus",                  // not a shortcut, not key=value
		"protect=quantum",        // unknown protection
		"replicate=true",         // replication without a detector
		"protect=P,cross=true",   // cross-tier without replication
		"prob=1e-3",              // injection into a disabled tier
		"protect=P,window=1000",  // unknown key (it is "decay")
		"protect=P,decay=plenty", // bad integer
		"protect=P,fault=gamma",  // unknown injection model
		// Keys the rest of the spec would silently drop.
		"protect=parity,victim=replica-only,decay=500", // victim and decay without replication
		"protect=ecc,decay=0",                          // even a zero window
		"protect=parity,replicate=false,victim=dead-first",
		"protect=parity,fault=column", // a model with no probability injects nothing
		"protect=parity,faultseed=3",  // as does a seed
		"protect=ecc,fault=adjacent,prob=0",
	} {
		if _, err := ParseTwoTier(spec); err == nil {
			t.Errorf("ParseTwoTier(%q) accepted", spec)
		}
	}
}

func TestTwoTierNames(t *testing.T) {
	cases := []struct {
		tt   TwoTier
		want string
	}{
		{TwoTier{}, "off"},
		{TwoTier{Protect: core.ParityProt}, "P"},
		{TwoTier{Protect: core.ECCProt}, "ECC"},
		{TwoTier{Protect: core.ParityProt, Replicate: true}, "ICR-P"},
		{TwoTier{Protect: core.ECCProt, Replicate: true, CrossTier: true}, "ICR-ECC+x"},
	}
	for _, tc := range cases {
		if got := tc.tt.Name(); got != tc.want {
			t.Errorf("Name(%+v) = %q, want %q", tc.tt, got, tc.want)
		}
	}
}

func TestTwoTierNormalizedCollapsesDisabled(t *testing.T) {
	tt := TwoTier{Victim: core.DeadFirst, DecayWindow: 500}
	if got := tt.Normalized(); got != (TwoTier{}) {
		t.Errorf("disabled tier normalized to %+v, want zero value", got)
	}
	// Injection settings without a probability are inert state the pool
	// shape must not see.
	tt = TwoTier{Protect: core.ParityProt, Fault: FaultConfig{Model: fault.Direct, Seed: 9}}
	if got := tt.Normalized().Fault; got != (FaultConfig{}) {
		t.Errorf("prob-0 injection normalized to %+v, want zero value", got)
	}
}
