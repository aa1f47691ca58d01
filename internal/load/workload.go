// Package load is the deterministic load-test harness of the planning
// service (`p2 loadtest`): a seeded synthetic workload generator over
// the paper-suite request catalog, closed- and open-loop drivers against
// an in-process serve.Server or a remote daemon, and a report of
// throughput, tail latency and per-class counts cross-checked against
// /statz deltas (DESIGN.md §12).
//
// Determinism contract: the request *stream* is a pure function of
// (WorkloadConfig, n) — same seed, same bytes, locked by
// TestGenerateDeterministic — so a cold and a warm run, or two runs on
// different machines, face byte-identical traffic. The *timings* the
// harness then measures are real wall-clock service latencies, which is
// the point of a load test; for that reason internal/load sits outside
// the engine scope of the wallclock/nanfloat analyzers (the one
// `internal/` package that does, alongside the analyzer suite itself —
// see DESIGN.md §10) and must never be imported by engine packages.
package load

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"p2/internal/serve"
)

// Kind classifies a generated request by the response class it is
// entitled to; the runner counts anything outside its kind's contract as
// an unexpected error.
type Kind int

const (
	// KindFresh is a unique-payload request (its cache key occurs once
	// in the stream): always a full plan. Expect 200 complete, or 429
	// under open-loop overload.
	KindFresh Kind = iota
	// KindHot draws verbatim from the catalog's hot set, so its key
	// repeats across the stream: after the first plan (or a warm start)
	// it is a cache hit or a coalesced follower. Same contract as fresh.
	KindHot
	// KindDeadlined carries timeout_ms 1 on a unique payload: expect an
	// anytime outcome — 200 partial, 504 if nothing was scored in time,
	// 503 if the wait for a coalesced flight expired, 200 complete if
	// planning beat the deadline, or 429.
	KindDeadlined
	// KindMalformed is a deliberately broken body: expect 400.
	KindMalformed
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindFresh:
		return "fresh"
	case KindHot:
		return "hot"
	case KindDeadlined:
		return "deadlined"
	case KindMalformed:
		return "malformed"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Request is one generated wire request: the JSON body to POST /plan and
// the response contract it was generated under.
type Request struct {
	Kind Kind
	Body string
}

// WorkloadConfig parameterizes Generate. Fractions are per-request
// probabilities drawn from the seeded stream; the remainder
// (1 − hot − timeout − malformed) is fresh unique-payload traffic.
type WorkloadConfig struct {
	// Seed seeds the generator's PRNG; the stream is a pure function of
	// (Seed, fractions, n).
	Seed int64
	// HotFrac is the fraction of requests drawn verbatim from the hot
	// set (the first HotSetSize catalog entries) — the knob that sets
	// the steady-state cache-hit ratio.
	HotFrac float64
	// TimeoutFrac is the fraction of requests carrying timeout_ms 1.
	TimeoutFrac float64
	// MalformedFrac is the fraction of deliberately broken bodies.
	MalformedFrac float64
	// HotSetSize overrides the hot-set size (0 = HotSetSize, capped at
	// the catalog length).
	HotSetSize int
}

// malformedBodies rotate through the pre-planning 400 paths:
// syntactically broken JSON (rejected at decode), a body naming no known
// system, and an unknown algorithm (both rejected at resolve). All three
// fail before the daemon's cache lookup, which is what keeps the
// cross-check equation hits+misses == sent − malformed exact; a body
// that only fails inside planning (e.g. axes that cannot cover the
// system) would count a cache miss first and belongs to a different
// contract.
var malformedBodies = []string{
	`{"system": "fig2a", "axes": [16`,
	`{"system": "nonesuch", "axes": [16]}`,
	`{"system": "fig2a", "axes": [16], "algo": "Warp"}`,
}

// freshBytes returns the k-th unique per-device payload. Distinct values
// make each fresh request's cache key unique within a stream (the key
// includes bytes), so fresh traffic always plans; the base is large
// enough to be a realistic gradient payload and never collides with a
// catalog entry's explicit Bytes.
func freshBytes(k int) float64 {
	return float64(1<<26 + 512*k)
}

// Generate produces a deterministic stream of n requests. Same config,
// same stream, byte for byte — the property that makes cold-vs-warm
// comparisons and cross-machine baselines face identical traffic.
func Generate(cfg WorkloadConfig, n int) ([]Request, error) {
	if n < 0 {
		return nil, fmt.Errorf("load: negative request count %d", n)
	}
	if !(cfg.HotFrac >= 0) || !(cfg.TimeoutFrac >= 0) || !(cfg.MalformedFrac >= 0) { // NaN-proof; +Inf fails the sum below
		return nil, fmt.Errorf("load: workload fraction not a number ≥ 0 (hot %g, timeout %g, malformed %g)",
			cfg.HotFrac, cfg.TimeoutFrac, cfg.MalformedFrac)
	}
	if sum := cfg.HotFrac + cfg.TimeoutFrac + cfg.MalformedFrac; sum > 1 {
		return nil, fmt.Errorf("load: workload fractions sum to %g > 1", sum)
	}
	cat := Catalog()
	hot := cfg.HotSetSize
	if hot <= 0 {
		hot = HotSetSize
	}
	if hot > len(cat) {
		hot = len(cat)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]Request, n)
	hotBodies := make([]string, hot) // each hot entry's encoding, once drawn
	fresh := 0
	for i := range out {
		u := rng.Float64()
		switch {
		case u < cfg.MalformedFrac:
			out[i] = Request{Kind: KindMalformed, Body: malformedBodies[rng.Intn(len(malformedBodies))]}
		case u < cfg.MalformedFrac+cfg.TimeoutFrac:
			pr := cat[rng.Intn(len(cat))]
			pr.Bytes = freshBytes(fresh)
			fresh++
			pr.TimeoutMs = 1
			body, err := marshalBody(pr)
			if err != nil {
				return nil, err
			}
			out[i] = Request{Kind: KindDeadlined, Body: body}
		case u < cfg.MalformedFrac+cfg.TimeoutFrac+cfg.HotFrac:
			j := rng.Intn(hot)
			if hotBodies[j] == "" {
				body, err := marshalBody(cat[j])
				if err != nil {
					return nil, err
				}
				hotBodies[j] = body
			}
			out[i] = Request{Kind: KindHot, Body: hotBodies[j]}
		default:
			pr := cat[rng.Intn(len(cat))]
			pr.Bytes = freshBytes(fresh)
			fresh++
			body, err := marshalBody(pr)
			if err != nil {
				return nil, err
			}
			out[i] = Request{Kind: KindFresh, Body: body}
		}
	}
	return out, nil
}

// marshalBody encodes a catalog request as a wire body. Struct field
// order makes the encoding deterministic.
func marshalBody(pr serve.PlanRequest) (string, error) {
	b, err := json.Marshal(pr)
	if err != nil {
		return "", fmt.Errorf("load: encoding request: %w", err)
	}
	return string(b), nil
}
