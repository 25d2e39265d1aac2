// Command icrd serves the ICR experiment suite over HTTP: POST a run or a
// figure id, get back the versioned metrics JSON. Results are memoized in
// memory and — with -store — persisted to disk, so a sweep point simulated
// once (by this daemon, a previous incarnation of it, or an icrbench run
// sharing the directory) is never simulated again.
//
//	icrd -addr localhost:8080 -store /var/cache/icr -parallel 8
//
// A disk-backed icrd also serves its store as a shard at /store/v1/
// (reads, write-through, and claims), so a fleet of icrd processes can
// pool their results memcache-style: point front ends at the fleet with
// -store shards:host1:8080,host2:8080,host3:8080 and keys are
// consistent-hashed across the shard ring — each result simulated once
// fleet-wide, hot results replicated for read spreading and survival of
// a shard loss. POST the same sweep to several such front ends and the
// claims spread it across them: a node whose claim on a key answers
// "wait" simulates the keys nobody holds meanwhile, and a node that dies
// mid-sweep stops renewing its claims, so the survivors take its keys
// over within the claim TTL.
//
// Overload is bounded: at most -queue requests are admitted concurrently
// and the rest get 429 immediately. SIGTERM/SIGINT drains gracefully:
// executing simulations finish and persist, queued ones are rejected,
// and the process exits 0 once in-flight responses are written.
//
// Observability: GET /debug/vars exposes cache-tier hit counters, queue
// state, and store stats; GET /debug/pprof serves the standard profilers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliflag"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "icrd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("icrd", flag.ContinueOnError)
	// Requests carry their own budget, seed, and run options, so icrd
	// registers only the runner and cache flags.
	var sim cliflag.Sim
	sim.RegisterRunner(fs)
	sim.RegisterCache(fs)
	var (
		addr        = fs.String("addr", "localhost:8080", "listen address (port 0 picks a free port, printed on stdout)")
		queue       = fs.Int("queue", 0, "max concurrently admitted requests before 429 (0 = 4x -parallel)")
		reqTimeout  = fs.Duration("request-timeout", 0, "per-request deadline cap (0 = none)")
		drainWait   = fs.Duration("drain-timeout", time.Minute, "max time to wait for in-flight requests on shutdown")
		showVersion = cliflag.RegisterVersion(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Println(cliflag.Version("icrd"))
		return nil
	}

	eng, backend, err := sim.NewRunner(nil)
	if err != nil {
		return err
	}
	spec, err := cliflag.ParseStore(sim.Store)
	if err != nil {
		return err
	}
	srv := serve.New(serve.Options{
		Runner:  eng,
		Backend: backend,
		// A disk-backed icrd doubles as a shard node: other fleet members
		// read, write, and claim through its /store/v1/ endpoints.
		ShardAPI:       backend != nil && spec.Kind == "disk",
		QueueDepth:     *queue,
		RequestTimeout: *reqTimeout,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The actual address on stdout (and nothing else there), so scripts
	// using -addr localhost:0 can scrape the port.
	fmt.Printf("listening on %s\n", ln.Addr())
	if backend != nil {
		fmt.Fprintf(os.Stderr, "icrd: result store %s (%d results warm)\n", sim.Store, backend.Stats().Entries)
		if spec.Kind == "disk" {
			fmt.Fprintln(os.Stderr, "icrd: shard API on at /store/v1/")
		}
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "icrd: draining (executing simulations will finish and persist)")

	// Reject queued/new simulations, then wait for in-flight handlers.
	// Shutdown does not cancel request contexts, so running simulations
	// complete and their results reach the store before exit.
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "icrd: drained cleanly")
	return nil
}
