// Package repro is a from-scratch Go reproduction of "ICR: In-Cache
// Replication for Enhancing Data Cache Reliability" (Zhang, Gurumurthi,
// Kandemir, Sivasubramaniam — DSN 2003).
//
// The library lives under internal/: the ICR replicating data cache
// (internal/core), the out-of-order superscalar timing model
// (internal/cpu), the memory hierarchy (internal/cache), real parity and
// SEC-DED codecs (internal/ecc), transient-fault injection
// (internal/fault), synthetic Spec2000-class workloads
// (internal/workload), and per-figure experiment drivers
// (internal/experiments). Executables are under cmd/ and runnable
// examples under examples/.
//
// cmd/icrbench regenerates every table and figure of the paper's
// evaluation:
//
//	go run ./cmd/icrbench -fig all -out results -svg figures
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results.
package repro
