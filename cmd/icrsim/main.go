// Command icrsim runs a single benchmark under a single cache-protection
// scheme on the paper's Table 1 machine and prints the resulting metrics.
//
// Examples:
//
//	icrsim -bench vpr -scheme "ICR-P-PS(S)"
//	icrsim -bench mcf -scheme BaseECC -instructions 5000000
//	icrsim -bench vortex -scheme "ICR-ECC-PS(S)" -window 1000 -victim dead-first
//	icrsim -bench gzip -scheme BaseP -writethrough
//	icrsim -bench vortex -scheme "ICR-P-PS(S)" -fault-prob 1e-3 -fault-model random
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/cliflag"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "icrsim:", err)
		os.Exit(1)
	}
}

// options is icrsim's parsed command line. req holds every run flag as
// the POST /v1/runs body it mirrors, so icrsim and icrd build a run from
// the same values through the same serve.BuildRun.
type options struct {
	sim          cliflag.Sim
	req          serve.RunRequest
	csv, all     bool
	printVersion *bool
}

// parseFlags parses args. Each run flag is bound to the RunRequest field
// it mirrors; -instructions and -seed (shared with icrbench) default to
// the values BuildRun gives a zero field.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("icrsim", flag.ContinueOnError)
	var o options
	o.sim.Register(fs)
	fs.StringVar(&o.req.Benchmark, "bench", "vpr", "benchmark: "+strings.Join(workload.Names(), ", "))
	fs.StringVar(&o.req.Scheme, "scheme", "ICR-P-PS(S)", "scheme name, e.g. BaseP, BaseECC, BaseECC-spec, ICR-ECC-PS(S)")
	fs.Uint64Var(&o.req.DecayWindow, "window", 0, "dead-block decay window in cycles (0 = dead immediately)")
	fs.StringVar(&o.req.Victim, "victim", "", "replica victim policy: dead-only (default), dead-first, replica-first, replica-only")
	fs.Func("distances", "comma-separated replica set offsets (default N/2)", func(v string) (err error) {
		o.req.Distances = nil
		if v != "" {
			o.req.Distances, err = cliflag.Ints(v)
		}
		return err
	})
	fs.IntVar(&o.req.Replicas, "replicas", 0, "replicas maintained per block (0 = 1)")
	fs.BoolVar(&o.req.LeaveReplicas, "leave", false, "leave replicas resident when the primary is evicted (§5.6)")
	fs.BoolVar(&o.req.WriteThrough, "writethrough", false, "write-through dL1 with 8-entry coalescing write buffer (§5.8)")
	fs.Float64Var(&o.req.FaultProb, "fault-prob", 0, "per-cycle error-injection probability (0 = off)")
	fs.StringVar(&o.req.FaultModel, "fault-model", "", "injection model: direct, adjacent, column, random (default random)")
	fs.Int64Var(&o.req.FaultSeed, "fault-seed", 0, "injection RNG seed")
	fs.StringVar(&o.req.Adapt, "adapt", "",
		`ICR-ADAPT runtime replication controller: "decay", "ehc", or `+
			`"predictor=decay|ehc[,epoch=N][,hysteresis=N][,maxreplicas=N]`+
			`[,minwindow=N][,maxwindow=N]" (empty = static replication)`)
	fs.StringVar(&o.req.TwoTier, "twotier", "",
		`second-tier protection: "parity", "ecc", "icr", "icr-ecc", or `+
			`"protect=P|ECC[,replicate=BOOL][,victim=NAME][,decay=N][,cross=BOOL]`+
			`[,latency=N][,fault=MODEL][,prob=F][,faultseed=N]" (empty = plain timing L2)`)
	fs.BoolVar(&o.csv, "csv", false, "emit a CSV row instead of the text report")
	fs.BoolVar(&o.all, "all", false, "run every scheme on the benchmark and print a comparison table")
	o.printVersion = cliflag.RegisterVersion(fs)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o.req.Instructions, o.req.Seed, o.req.Sample = o.sim.Instructions, o.sim.Seed, o.sim.Sample
	return o, nil
}

func run(ctx context.Context, args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if *o.printVersion {
		fmt.Println(cliflag.Version("icrsim"))
		return nil
	}
	if o.all {
		return runAllSchemes(ctx, o.sim, o.req)
	}
	r, err := serve.BuildRun(o.req)
	if err != nil {
		return err
	}
	if o.sim.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.sim.Timeout)
		defer cancel()
	}
	report, err := sim.SimulateContext(ctx, config.Default(), r)
	if err != nil {
		return err
	}
	if o.csv {
		fmt.Println(metrics.CSVHeader())
		fmt.Println(report.CSVRow())
		return nil
	}
	fmt.Print(report.String())
	return nil
}

// schemeRuns builds req's run once per scheme, in core.AllSchemes order.
// The adaptive controller needs a replicating scheme, so -adapt applies
// to the replicating schemes and the static baselines run without it.
func schemeRuns(req serve.RunRequest) ([]config.Run, error) {
	schemes := core.AllSchemes()
	runs := make([]config.Run, len(schemes))
	for i, scheme := range schemes {
		sreq := req
		sreq.Scheme = scheme.Name()
		if !scheme.HasReplication() {
			sreq.Adapt = ""
		}
		var err error
		if runs[i], err = serve.BuildRun(sreq); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// runAllSchemes prints a per-scheme comparison for one benchmark. The
// schemes are independent simulations, so they fan out across the runner's
// worker pool; rows print in scheme order regardless of completion order.
func runAllSchemes(ctx context.Context, sf cliflag.Sim, req serve.RunRequest) error {
	runs, err := schemeRuns(req)
	if err != nil {
		return err
	}
	eng := runner.New(runner.Options{Workers: sf.Parallel, Timeout: sf.Timeout})
	reports, err := eng.RunBatch(ctx, config.Default(), runs)
	if err != nil {
		return err
	}
	base := reports[0]
	fmt.Printf("%-16s %10s %10s %10s %10s %10s %12s\n",
		"scheme", "cycles", "normCyc", "missRate", "replAbil", "loadsWRep", "energy(uJ)")
	for i, r := range runs {
		rep := reports[i]
		fmt.Printf("%-16s %10d %10.4f %10.4f %10.4f %10.4f %12.1f\n",
			r.Scheme.Name(), rep.Cycles,
			float64(rep.Cycles)/float64(base.Cycles),
			rep.DL1MissRate(), rep.ReplAbility(), rep.LoadsWithReplica(),
			rep.TotalEnergy()/1000)
	}
	return nil
}
