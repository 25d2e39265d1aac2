package config

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
)

func TestDefaultMatchesTable1(t *testing.T) {
	m := Default()
	if m.IL1Size != 16<<10 || m.IL1Assoc != 1 || m.IL1Block != 32 {
		t.Errorf("iL1 geometry wrong: %+v", m)
	}
	if m.DL1Size != 16<<10 || m.DL1Assoc != 4 || m.DL1Block != 64 {
		t.Errorf("dL1 geometry wrong: %+v", m)
	}
	if m.L2Size != 256<<10 || m.L2Assoc != 4 || m.L2Block != 64 || m.L2Latency != 6 {
		t.Errorf("L2 geometry wrong: %+v", m)
	}
	if m.MemLatency != 100 {
		t.Errorf("memory latency = %d, want 100", m.MemLatency)
	}
	if m.CPU.IssueWidth != 4 || m.CPU.RUUSize != 16 || m.CPU.LSQSize != 8 {
		t.Errorf("core parameters wrong: %+v", m.CPU)
	}
	if m.CPU.IntALUs != 4 || m.CPU.IntMulDiv != 1 || m.CPU.FPALUs != 4 || m.CPU.FPMulDiv != 1 {
		t.Errorf("FU mix wrong: %+v", m.CPU)
	}
	if m.CPU.BranchPenalty != 3 {
		t.Errorf("misprediction penalty = %d, want 3", m.CPU.BranchPenalty)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("default machine invalid: %v", err)
	}
}

func TestDL1Sets(t *testing.T) {
	m := Default()
	if got := m.DL1Sets(); got != 64 {
		t.Errorf("DL1Sets = %d, want 64 (16KB / (4 * 64B))", got)
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	m := Default()
	m.DL1Size = 0
	if err := m.Validate(); err == nil {
		t.Error("zero dL1 size should be invalid")
	}
	m = Default()
	m.L2Size = -1
	if err := m.Validate(); err == nil {
		t.Error("negative L2 size should be invalid")
	}

	// A core on which some stage can never make progress again would spin
	// until its context's deadline, or for good without one.
	for _, tc := range []struct {
		name string
		set  func(c *cpu.Config)
	}{
		{"IssueWidth 0", func(c *cpu.Config) { c.IssueWidth = 0 }},
		{"CommitWidth 0", func(c *cpu.Config) { c.CommitWidth = 0 }},
		{"RUUSize 0", func(c *cpu.Config) { c.RUUSize = 0 }},
		{"RUUSize 65", func(c *cpu.Config) { c.RUUSize = 65 }},
		{"LSQSize 0", func(c *cpu.Config) { c.LSQSize = 0 }},
		{"IntALUs 0", func(c *cpu.Config) { c.IntALUs = 0 }},
		{"IntMulDiv 0", func(c *cpu.Config) { c.IntMulDiv = 0 }},
		{"FPALUs 0", func(c *cpu.Config) { c.FPALUs = 0 }},
		{"FPMulDiv 0", func(c *cpu.Config) { c.FPMulDiv = 0 }},
		{"MemPorts 0", func(c *cpu.Config) { c.MemPorts = 0 }},
		{"RASDepth 0", func(c *cpu.Config) { c.RASDepth = 0 }},
		{"MSHRs -1", func(c *cpu.Config) { c.MSHRs = -1 }},
		{"IssueWidth -1", func(c *cpu.Config) { c.IssueWidth = -1 }},
	} {
		m := Default()
		tc.set(&m.CPU)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: core should be invalid", tc.name)
		}
	}

	// New's defaults still apply first: a zero FetchWidth selects the
	// Table 1 core, a zero FetchQueue two fetch groups, and MSHRs 0 means
	// unlimited. The largest RUU the model runs is 64.
	for _, tc := range []struct {
		name string
		set  func(c *cpu.Config)
	}{
		{"zero core", func(c *cpu.Config) { *c = cpu.Config{} }},
		{"FetchQueue 0", func(c *cpu.Config) { c.FetchQueue = 0 }},
		{"MSHRs 0", func(c *cpu.Config) { c.MSHRs = 0 }},
		{"RUUSize 64", func(c *cpu.Config) { c.RUUSize = 64 }},
	} {
		m := Default()
		tc.set(&m.CPU)
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestNewRunDefaults(t *testing.T) {
	r := NewRun("vpr", core.BaseP())
	if r.Benchmark != "vpr" || r.Scheme.Name() != "BaseP" {
		t.Errorf("run = %+v", r)
	}
	if r.Instructions != DefaultInstructions || r.Seed != 1 {
		t.Errorf("defaults wrong: %+v", r)
	}
	if r.Energy.L1Read == 0 {
		t.Error("energy params not defaulted")
	}
	if got := r.Name(); got != "vpr/BaseP" {
		t.Errorf("Name = %q", got)
	}
}
