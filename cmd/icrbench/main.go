// Command icrbench regenerates the paper's evaluation: one experiment per
// table/figure of §5, printed as aligned tables (or CSV) on stdout.
//
// Simulations fan out across a worker pool (-parallel) with memoization of
// repeated sweep points; emitted rows are byte-identical at any worker
// count. With -store the memo cache is layered over a persistent on-disk
// result store, so a re-run (or the icrd daemon pointed at the same
// directory) serves finished sweep points without re-simulating. Ctrl-C
// cancels in-flight simulations promptly.
//
// Examples:
//
//	icrbench -list
//	icrbench -fig fig9
//	icrbench -fig all -instructions 2000000 -parallel 8 -progress
//	icrbench -fig fig14 -csv
//	icrbench -fig all -out results/ -store ~/.cache/icr
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cliflag"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "icrbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("icrbench", flag.ContinueOnError)
	var sim cliflag.Sim
	sim.Register(fs)
	sim.RegisterCache(fs)
	var (
		fig         = fs.String("fig", "all", `experiment id ("fig1".."fig17", "faultmodels", "sensitivity", "victims") or "all"`)
		csv         = fs.Bool("csv", false, "emit CSV instead of text tables")
		plot        = fs.Bool("plot", false, "render ASCII bar charts instead of tables")
		seeds       = fs.String("seeds", "", "comma-separated seeds to average over (overrides -seed)")
		out         = fs.String("out", "", "directory to also write per-experiment CSV files into")
		svg         = fs.String("svg", "", "directory to also write per-experiment SVG figures into")
		list        = fs.Bool("list", false, "list experiment ids and exit")
		progress    = fs.Bool("progress", false, "print a live progress line to stderr")
		showVersion = cliflag.RegisterVersion(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Println(cliflag.Version("icrbench"))
		return nil
	}
	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return nil
	}

	ids := experiments.IDs()
	if *fig != "all" {
		ids = strings.Split(*fig, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
		}
	}
	seedList, err := cliflag.Seeds(*seeds)
	if err != nil {
		return err
	}
	prog := metrics.NewProgress()
	eng, _, err := sim.NewRunner(prog)
	if err != nil {
		return err
	}
	opts := experiments.Options{
		Instructions: sim.Instructions,
		Seed:         sim.Seed,
		Runner:       eng,
	}
	if opts.Sample, err = config.ParseSample(sim.Sample); err != nil {
		return err
	}
	if *progress {
		stopProgress := startProgressLine(prog)
		defer stopProgress()
	}
	for _, id := range ids {
		if !experiments.Valid(id) {
			return fmt.Errorf("unknown experiment %q (icrbench -list prints the ids)", id)
		}
		start := time.Now()
		before := prog.Snapshot()
		res, err := experiments.MultiSeed(ctx, id, opts, seedList)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		after := prog.Snapshot()
		switch {
		case *csv:
			fmt.Printf("# %s — %s\n%s\n", res.ID, res.Title, res.CSV())
		case *plot:
			fmt.Printf("%s\n", res.Chart())
		default:
			fmt.Printf("%s  [%.1fs, %d sims, %d memoized, %d disk]\n\n",
				res.Table(), time.Since(start).Seconds(),
				after.Completed-before.Completed,
				after.MemoHits-before.MemoHits,
				after.DiskHits-before.DiskHits)
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*out, res.ID+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				return fmt.Errorf("writing %s: %w", path, err)
			}
		}
		if *svg != "" {
			if err := os.MkdirAll(*svg, 0o755); err != nil {
				return err
			}
			figure, err := res.SVG()
			if err != nil {
				return fmt.Errorf("rendering %s: %w", res.ID, err)
			}
			path := filepath.Join(*svg, res.ID+".svg")
			if err := os.WriteFile(path, []byte(figure), 0o644); err != nil {
				return fmt.Errorf("writing %s: %w", path, err)
			}
		}
	}
	return nil
}

// startProgressLine spawns a goroutine refreshing a one-line status on
// stderr twice a second; the returned func stops it and prints a final
// snapshot.
func startProgressLine(prog *metrics.Progress) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(500 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				fmt.Fprintf(os.Stderr, "\r%s\n", prog.Snapshot())
				return
			case <-ticker.C:
				fmt.Fprintf(os.Stderr, "\r%s", prog.Snapshot())
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
