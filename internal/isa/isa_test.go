package isa

import "testing"

func TestOpString(t *testing.T) {
	if OpLoad.String() != "load" {
		t.Errorf("OpLoad.String() = %q", OpLoad.String())
	}
	if Op(200).String() == "" {
		t.Error("unknown op should have a non-empty string")
	}
}

func TestOpClassification(t *testing.T) {
	for _, o := range []Op{OpLoad, OpStore} {
		if !o.IsMem() {
			t.Errorf("%v should be memory op", o)
		}
		if o.IsCtrl() {
			t.Errorf("%v should not be control op", o)
		}
	}
	for _, o := range []Op{OpBranch, OpJump, OpCall, OpReturn} {
		if !o.IsCtrl() {
			t.Errorf("%v should be control op", o)
		}
		if o.IsMem() {
			t.Errorf("%v should not be memory op", o)
		}
	}
	if OpInvalid.Valid() {
		t.Error("OpInvalid should not be Valid")
	}
	if !OpIntALU.Valid() || !OpReturn.Valid() {
		t.Error("defined ops should be Valid")
	}
	if Op(100).Valid() {
		t.Error("out-of-range op should not be Valid")
	}
}

func TestNextPC(t *testing.T) {
	cases := []struct {
		in   Inst
		want uint64
	}{
		{Inst{PC: 100, Op: OpIntALU}, 104},
		{Inst{PC: 100, Op: OpBranch, Taken: false, Target: 200}, 104},
		{Inst{PC: 100, Op: OpBranch, Taken: true, Target: 200}, 200},
		{Inst{PC: 100, Op: OpJump, Taken: true, Target: 48}, 48},
		{Inst{PC: 100, Op: OpLoad, Taken: true, Target: 200}, 104}, // non-ctrl ignores Taken
	}
	for _, c := range cases {
		if got := c.in.NextPC(); got != c.want {
			t.Errorf("NextPC(%+v) = %d, want %d", c.in, got, c.want)
		}
	}
}
