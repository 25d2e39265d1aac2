// Package serve is icrd's HTTP layer: a small JSON API over the runner,
// the experiment registry, and the persistent result store.
//
// Endpoints:
//
//	POST /v1/runs          one simulation; responds with the versioned
//	                       metrics.Report JSON and the cache tier that
//	                       served it ("simulated", "memory", "disk")
//	POST /v1/figures/{id}  one experiment driver (experiments.IDs)
//	GET  /store/v1/{key}   shard read: the stored report or 404
//	PUT  /store/v1/{key}   shard write-through (also clears the claim)
//	POST /store/v1/claim/{key}   claim or renew: granted|wait|done
//	DELETE /store/v1/claim/{key} claim release (simulation failed)
//	                       (store endpoints mounted only with
//	                       Options.ShardAPI; see internal/store.Remote for
//	                       the client half)
//	GET  /healthz          liveness + draining state
//	GET  /debug/vars       expvar counters (cache tiers, queue, store)
//	GET  /debug/pprof/...  standard profiling handlers
//
// Robustness model:
//
//   - Admission control: at most QueueDepth requests are inside the
//     simulation endpoints at once; the next one is rejected immediately
//     with 429 rather than queued without bound, so overload degrades to
//     fast failure instead of memory growth and timeout pileups. 429 and
//     the drain 503s carry a Retry-After hint for well-behaved clients.
//   - Deadlines: each request's context — including the optional
//     timeout_ms field and the server-wide RequestTimeout cap — flows
//     through the runner into sim.SimulateContext, so an abandoned or
//     over-deadline request stops burning CPU mid-simulation.
//   - Drain: Drain() moves the runner to shutdown mode. Simulations
//     already executing finish (and persist through the store); queued
//     ones settle with runner.ErrDraining, surfaced as 503. Pair it with
//     http.Server.Shutdown, which waits for in-flight handlers without
//     cancelling their contexts.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/store"
	"repro/internal/workload"
)

// Options configure a Server.
type Options struct {
	// Runner executes the simulations (required). Build it with a
	// memory-over-disk cache (cliflag.Sim.NewRunner) to make results
	// durable.
	Runner *runner.Runner

	// Backend, when non-nil, contributes its stats to /debug/vars and —
	// with ShardAPI set — is what the /store/v1/ endpoints serve. The
	// simulation path never touches it directly; persistence rides the
	// runner's cache stack.
	Backend store.Backend

	// ShardAPI mounts the shard endpoints (GET/PUT /store/v1/{key},
	// POST/DELETE /store/v1/claim/{key}) over Backend, making this icrd a
	// shard node other fleet members can read through. Requires Backend.
	ShardAPI bool

	// QueueDepth bounds concurrently admitted simulation requests;
	// request QueueDepth+1 gets 429. <= 0 means 4 × the runner's worker
	// count.
	QueueDepth int

	// StoreQueueDepth bounds concurrently admitted /store/v1/ requests.
	// Store hits are orders of magnitude cheaper than simulations, so the
	// bound is separate and much deeper. <= 0 means 1024.
	StoreQueueDepth int

	// RequestTimeout caps every request's context (0 = no cap). A
	// request's own timeout_ms can only shorten it further.
	RequestTimeout time.Duration
}

// Server is the icrd HTTP service. Create with New, expose via Handler,
// shut down by calling Drain and then http.Server.Shutdown.
type Server struct {
	eng        *runner.Runner
	backend    store.Backend
	claims     *store.ClaimTable
	runGate    *gate // the simulation endpoints
	storeGate  *gate // the store endpoints
	reqTimeout time.Duration
	mux        *http.ServeMux
}

// activeServer backs the process-wide expvar page. expvar registration is
// global and permanent, so the Func is published once and reads whichever
// server was created most recently (tests create many; a process runs one).
var (
	activeServer atomic.Pointer[Server]
	publishOnce  sync.Once
)

// New returns a Server wired to the given runner.
func New(o Options) *Server {
	if o.Runner == nil {
		panic("serve.New: Options.Runner is required")
	}
	depth := o.QueueDepth
	if depth <= 0 {
		depth = 4 * o.Runner.Workers()
	}
	storeDepth := o.StoreQueueDepth
	if storeDepth <= 0 {
		storeDepth = 1024
	}
	s := &Server{
		eng:        o.Runner,
		backend:    o.Backend,
		runGate:    newGate(depth, o.Runner.Draining, "admission queue", "server draining"),
		storeGate:  newGate(storeDepth, o.Runner.Draining, "store queue", "shard draining"),
		reqTimeout: o.RequestTimeout,
		mux:        http.NewServeMux(),
	}
	if o.ShardAPI {
		if s.backend == nil {
			panic("serve.New: Options.ShardAPI requires Options.Backend")
		}
		s.claims = store.NewClaimTable(store.DefaultClaimTTL)
		s.mux.HandleFunc("GET "+store.StorePathPrefix+"{key}", s.handleStoreGet)
		s.mux.HandleFunc("PUT "+store.StorePathPrefix+"{key}", s.handleStorePut)
		s.mux.HandleFunc("POST "+store.ClaimPathPrefix+"{key}", s.handleClaim)
		s.mux.HandleFunc("DELETE "+store.ClaimPathPrefix+"{key}", s.handleUnclaim)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/runs", s.handleRun)
	s.mux.HandleFunc("POST /v1/figures/{id}", s.handleFigure)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	activeServer.Store(s)
	publishOnce.Do(func() {
		expvar.Publish("icrd", expvar.Func(func() any {
			if cur := activeServer.Load(); cur != nil {
				return cur.stats()
			}
			return nil
		}))
	})
	return s
}

// Handler returns the server's routing handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain moves the runner into shutdown mode: executing simulations finish
// and persist, queued ones are rejected. Safe to call more than once.
func (s *Server) Drain() {
	s.eng.Drain()
	if s.backend != nil {
		// The disk store's Drain is a no-op by contract (executing
		// simulations must still persist); remote backends release their
		// idle connections.
		s.backend.Drain()
	}
}

// stats is the /debug/vars payload: runner progress per cache tier, the
// admission queue, and (when persistent) the disk store.
func (s *Server) stats() map[string]any {
	snap := s.eng.Progress().Snapshot()
	out := map[string]any{
		"submitted":    snap.Submitted,
		"started":      snap.Started,
		"completed":    snap.Completed,
		"failed":       snap.Failed,
		"memory_hits":  snap.MemoHits,
		"disk_hits":    snap.DiskHits,
		"shard_hits":   snap.ShardHits,
		"cache_misses": snap.CacheMisses,
		"cache_errors": snap.CacheErrors,
		"put_errors":   snap.PutErrors,
		"evictions":    snap.Evictions,
		"inflight":     s.runGate.inflight.Load(),
		"admitted":     s.runGate.admitted.Load(),
		"rejected":     s.runGate.rejected.Load(),
		"queue_depth":  cap(s.runGate.slots),
		"draining":     s.eng.Draining(),
	}
	if s.backend != nil {
		st := s.backend.Stats()
		out["store"] = map[string]any{
			"entries":      st.Entries,
			"bytes":        st.Bytes,
			"hits":         st.Hits,
			"misses":       st.Misses,
			"puts":         st.Puts,
			"dup_puts":     st.DupPuts,
			"evictions":    st.Evictions,
			"quarantined":  st.Quarantined,
			"schema_stale": st.SchemaStale,
			"read_errors":  st.ReadErrors,
			"put_errors":   st.PutErrors,
			"hot_keys":     st.HotKeys,
			"replica_ops":  st.ReplicaOps,
		}
	}
	if s.claims != nil {
		out["shard_api"] = map[string]any{
			"claims_held":    s.claims.Len(),
			"claims_granted": s.claims.Granted(),
			"claims_waited":  s.claims.Waited(),
			"claims_expired": s.claims.Expired(),
			"inflight":       s.storeGate.inflight.Load(),
			"rejected":       s.storeGate.rejected.Load(),
			"queue_depth":    cap(s.storeGate.slots),
		}
	}
	return out
}

// RunRequest is the POST /v1/runs body. BuildRun maps it onto a
// config.Run, with zero fields taking config.NewRun's defaults; icrsim
// fills one from its flags and builds its run the same way, so a flag and
// the field it mirrors cannot disagree.
type RunRequest struct {
	Benchmark     string  `json:"benchmark"`
	Scheme        string  `json:"scheme"`
	Instructions  uint64  `json:"instructions,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	DecayWindow   uint64  `json:"decay_window,omitempty"`
	Victim        string  `json:"victim,omitempty"`
	Distances     []int   `json:"distances,omitempty"`
	Replicas      int     `json:"replicas,omitempty"`
	LeaveReplicas bool    `json:"leave_replicas,omitempty"`
	WriteThrough  bool    `json:"write_through,omitempty"`
	FaultModel    string  `json:"fault_model,omitempty"`
	FaultProb     float64 `json:"fault_prob,omitempty"`
	FaultSeed     int64   `json:"fault_seed,omitempty"`
	// Sample (SMARTS-style sampling), Adapt (the ICR-ADAPT controller)
	// and TwoTier (second-tier protection) are specs in the -sample,
	// -adapt and -twotier flag syntax that config.ParseSample, ParseAdapt
	// and ParseTwoTier document: a shortcut such as "on", "ehc" or "icr",
	// or comma-separated key=value pairs.
	Sample  string `json:"sample,omitempty"`
	Adapt   string `json:"adapt,omitempty"`
	TwoTier string `json:"twotier,omitempty"`
	// TimeoutMS bounds this request (further capped by the server's
	// RequestTimeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// RunResponse is the POST /v1/runs reply. Report carries its own schema
// field (metrics.ReportSchemaVersion); Source names the cache tier that
// produced it.
type RunResponse struct {
	Source string          `json:"source"`
	Report *metrics.Report `json:"report"`
}

// FigureRequest is the POST /v1/figures/{id} body.
type FigureRequest struct {
	Instructions uint64  `json:"instructions,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	Seeds        []int64 `json:"seeds,omitempty"`
	// Sample switches every simulation behind the figure to sampled mode
	// (same syntax as RunRequest.Sample).
	Sample    string `json:"sample,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// errorBody is every non-2xx JSON payload.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.eng.Draining(),
	})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	release, ok := s.runGate.admit(w)
	if !ok {
		return
	}
	defer release()
	var req RunRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	run, err := BuildRun(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	p := s.eng.Submit(ctx, config.Default(), run)
	rep, err := p.Wait()
	if err != nil {
		writeRunError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RunResponse{Source: p.Source(), Report: rep})
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	release, ok := s.runGate.admit(w)
	if !ok {
		return
	}
	defer release()
	id := r.PathValue("id")
	if !experiments.Valid(id) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown figure %q (GET /healthz is alive; valid ids: see experiments.IDs)", id))
		return
	}
	var req FigureRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opts, err := figureOptions(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opts.Runner = s.eng
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	res, err := experiments.MultiSeed(ctx, id, opts, req.Seeds)
	if err != nil {
		writeRunError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// gate bounds the requests inside one group of endpoints. A full gate
// rejects with 429 and a draining runner with 503, each with a
// Retry-After hint.
type gate struct {
	slots    chan struct{}
	draining func() bool
	name     string // the gate in its 429 message
	drainMsg string // the 503 message

	inflight atomic.Int64
	admitted atomic.Uint64
	rejected atomic.Uint64
}

func newGate(depth int, draining func() bool, name, drainMsg string) *gate {
	return &gate{slots: make(chan struct{}, depth), draining: draining, name: name, drainMsg: drainMsg}
}

// admit claims a slot or rejects the request. On success the caller must
// invoke the returned release exactly once.
func (g *gate) admit(w http.ResponseWriter) (release func(), ok bool) {
	if g.draining() {
		// A drain usually precedes a restart or a failover; a few seconds
		// is the honest hint.
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, errors.New(g.drainMsg))
		return nil, false
	}
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		g.inflight.Add(1)
		return func() {
			g.inflight.Add(-1)
			<-g.slots
		}, true
	default:
		g.rejected.Add(1)
		// A full queue is transient: slots free as soon as the next
		// request settles.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("%s full (%d in flight); retry later", g.name, cap(g.slots)))
		return nil, false
	}
}

// requestContext derives the simulation context: the client's context,
// bounded by the server cap and the request's own timeout_ms.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.reqTimeout
	if t := time.Duration(timeoutMS) * time.Millisecond; t > 0 && (d == 0 || t < d) {
		d = t
	}
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return context.WithCancel(r.Context())
}

// BuildRun translates a RunRequest into a config.Run. It is the one
// mapping from request (or icrsim flag) values to a run.
func BuildRun(req RunRequest) (config.Run, error) {
	if req.Benchmark == "" {
		return config.Run{}, errors.New("benchmark is required")
	}
	if req.Scheme == "" {
		return config.Run{}, errors.New("scheme is required")
	}
	scheme, err := core.SchemeByName(req.Scheme)
	if err != nil {
		return config.Run{}, err
	}
	if _, err := workload.ByName(req.Benchmark); err != nil {
		return config.Run{}, err
	}
	run := config.NewRun(req.Benchmark, scheme)
	if req.Instructions > 0 {
		run.Instructions = req.Instructions
	}
	if req.Seed != 0 {
		run.Seed = req.Seed
	}
	run.Repl.DecayWindow = req.DecayWindow
	if req.Victim != "" {
		if run.Repl.Victim, err = core.ParseVictimPolicy(req.Victim); err != nil {
			return config.Run{}, err
		}
	}
	if len(req.Distances) > 0 {
		run.Repl.Distances = req.Distances
	}
	if req.Replicas < 0 {
		return config.Run{}, fmt.Errorf("replicas %d is negative", req.Replicas)
	}
	run.Repl.Replicas = req.Replicas
	run.Repl.LeaveReplicas = req.LeaveReplicas
	run.WriteThrough = req.WriteThrough
	if run.Sample, err = config.ParseSample(req.Sample); err != nil {
		return config.Run{}, err
	}
	if run.Adapt, err = config.ParseAdapt(req.Adapt); err != nil {
		return config.Run{}, err
	}
	if run.TwoTier, err = config.ParseTwoTier(req.TwoTier); err != nil {
		return config.Run{}, err
	}
	if req.FaultProb != 0 {
		model, err := fault.ParseModel(cmp.Or(req.FaultModel, "random"))
		if err != nil {
			return config.Run{}, err
		}
		run.Fault = config.FaultConfig{Model: model, Prob: req.FaultProb, Seed: req.FaultSeed}
	} else if req.FaultModel != "" || req.FaultSeed != 0 {
		return config.Run{}, errors.New("fault_model and fault_seed apply to fault injection (fault_prob)")
	}
	return run, run.Validate()
}

// figureOptions translates a FigureRequest into the experiment options
// its figure runs under (all but the runner).
func figureOptions(req FigureRequest) (experiments.Options, error) {
	if err := config.ValidateSeeds(req.Seeds); err != nil {
		return experiments.Options{}, err
	}
	sample, err := config.ParseSample(req.Sample)
	if err != nil {
		return experiments.Options{}, err
	}
	return experiments.Options{Instructions: req.Instructions, Seed: req.Seed, Sample: sample}, nil
}

// decodeBody parses a bounded JSON body; unknown fields are errors so
// typos fail loudly instead of silently simulating the default.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// writeRunError maps simulation failures onto status codes: drain → 503
// (retry elsewhere/later), deadline → 504, anything else → 500.
func writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, runner.ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		// The client went away; the status code is a formality.
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		// Every payload type here marshals; reaching this is a bug.
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//icrvet:ignore droppederr a failed write means the client is gone; nothing to do
	w.Write(buf)
}
