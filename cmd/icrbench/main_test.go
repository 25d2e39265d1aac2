package main

import (
	"context"

	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListExperiments(t *testing.T) {
	if err := run(context.Background(), []string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunOneFigure(t *testing.T) {
	if err := run(context.Background(), []string{"-fig", "fig10", "-instructions", "20000"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigureCSVAndOut(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-fig", "fig5", "-instructions", "15000", "-csv", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "fig5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("empty CSV written")
	}
}

func TestUnknownFigure(t *testing.T) {
	if err := run(context.Background(), []string{"-fig", "fig99"}); err == nil {
		t.Error("unknown figure should fail")
	}
}

func TestRunFigurePlotMode(t *testing.T) {
	if err := run(context.Background(), []string{"-fig", "fig10", "-instructions", "15000", "-plot"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigureSVGOutput(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-fig", "fig10", "-instructions", "15000", "-svg", dir}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "fig10.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("empty SVG written")
	}
}

func TestRunMultiSeed(t *testing.T) {
	if err := run(context.Background(), []string{"-fig", "fig10", "-instructions", "10000", "-seeds", "1,2"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-fig", "fig10", "-seeds", "1,x"}); err == nil {
		t.Error("bad seed list should fail")
	}
}

// TestRunOptionFlagsNotRegistered: the figure drivers fix each run's
// scheme options themselves, so icrbench rejects -adapt and -twotier at
// parsing rather than accepting and ignoring them.
func TestRunOptionFlagsNotRegistered(t *testing.T) {
	for _, args := range [][]string{{"-twotier", "ecc"}, {"-adapt", "decay"}} {
		err := run(context.Background(), append(args, "-list"))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("icrbench %v: err = %v, want an undefined-flag error", args, err)
		}
	}
}
