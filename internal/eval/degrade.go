package eval

import (
	"context"
	"fmt"
	"math"

	"p2/internal/cost"
	"p2/internal/placement"
	"p2/internal/plan"
	"p2/internal/topology"
)

// DegradeConfig describes one degraded-fabric comparison: the same planning
// request run twice, once on the pristine system and once with the given
// link overrides applied, to answer "how much does the fault reshuffle the
// ranking, and what does re-planning buy?".
type DegradeConfig struct {
	// Sys is the pristine system; Overrides the faults applied to its copy
	// (see topology.LinkOverride / topology.ParseFaults).
	Sys       *topology.System
	Overrides []topology.LinkOverride
	// Axes / ReduceAxes define the parallelism request as in Config.
	Axes       []int
	ReduceAxes []int
	// Algos is the planner's algorithm set (single entry pins it).
	Algos []cost.Algorithm
	// Bytes is the per-device payload; 0 means the paper default.
	Bytes float64
	// Parallelism is the planner worker count (0 = GOMAXPROCS).
	Parallelism int
}

// DegradeResult compares the pristine and degraded rankings of one request.
type DegradeResult struct {
	// Pristine and Degraded are the two systems compared.
	Pristine, Degraded *topology.System
	// Algo is the fixed algorithm of candidates without a per-step
	// assignment, for rendering.
	Algo cost.Algorithm
	// PristineRank is the full pristine ranking; DegradedAt[i] is the
	// degraded predicted time of PristineRank[i] (matched by candidate
	// identity, not rank), and DegradedRank the degraded ranking.
	PristineRank []*plan.Candidate
	DegradedAt   []float64
	DegradedRank []*plan.Candidate

	// Inversions is the Kendall-tau distance between the two rankings:
	// candidate pairs the fault reorders. MaxPairs = n(n-1)/2 is its
	// ceiling, Tau the normalized distance Inversions/MaxPairs in [0, 1].
	Inversions int
	MaxPairs   int
	Tau        float64

	// BestShifted reports whether the degraded fabric changes the winning
	// (matrix, program) candidate. StaleTime is the degraded time of the
	// pristine winner — what a plan chosen while ignoring the fault would
	// actually cost — and ReplanTime the degraded winner's time.
	// ReplanSpeedup = StaleTime/ReplanTime ≥ 1 is the payoff of
	// re-planning; +Inf when the stale plan routes traffic over a down
	// link (it would never finish) while re-planning finds a finite route.
	BestShifted   bool
	StaleTime     float64
	ReplanTime    float64
	ReplanSpeedup float64
}

// candKey identifies one candidate across the two runs: both rankings
// enumerate the same matrices in the same order and synthesize the same
// programs per matrix (pruning is disabled), so (MatrixIdx, ProgIdx) is a
// stable identity.
type candKey struct{ mi, pi int }

// RunDegradeCtx plans the request on the pristine and the degraded system
// (full rankings, no top-K pruning, analytic mode — the comparison is about
// the cost model's ranking) and compares the outcomes. Cancellation aborts
// the comparison with ctx.Err(): a ranking-shift report over a partial
// ranking would be meaningless, so there is no anytime mode here — the
// planner's best-so-far results are discarded.
func RunDegradeCtx(ctx context.Context, cfg DegradeConfig) (*DegradeResult, error) {
	if len(cfg.Overrides) == 0 {
		return nil, fmt.Errorf("eval: degrade run with no link overrides")
	}
	degraded, err := cfg.Sys.WithOverrides(cfg.Overrides...)
	if err != nil {
		return nil, err
	}
	matrices, err := placement.Enumerate(cfg.Sys.Hierarchy(), cfg.Axes)
	if err != nil {
		return nil, err
	}
	bytes := cfg.Bytes
	if !(bytes > 0) { // NaN-proof: NaN, zero and negatives take the default
		bytes = cost.DefaultPayload(cfg.Sys)
	}
	algo := cost.Ring
	if len(cfg.Algos) > 0 {
		algo = cfg.Algos[0]
	}
	opts := plan.Options{
		Parallelism: cfg.Parallelism,
		TopK:        0, // full ranking: ranking shift needs every candidate
		Algos:       cfg.Algos,
	}
	runOn := func(sys *topology.System) ([]*plan.Candidate, error) {
		model := &cost.Model{Sys: sys, Algo: algo, Bytes: bytes}
		cands, _, err := plan.New().RunCtx(ctx, matrices, cfg.ReduceAxes, model, opts)
		if err != nil {
			// Anytime partial rankings are useless for a shift comparison:
			// treat cancellation like any other failure.
			return nil, err
		}
		return cands, nil
	}
	pristine, err := runOn(cfg.Sys)
	if err != nil {
		return nil, err
	}
	degradedRank, err := runOn(degraded)
	if err != nil {
		return nil, err
	}
	if len(pristine) != len(degradedRank) {
		return nil, fmt.Errorf("eval: pristine run has %d candidates, degraded %d",
			len(pristine), len(degradedRank))
	}
	if len(pristine) == 0 {
		return nil, fmt.Errorf("eval: no candidates for axes %v", cfg.Axes)
	}

	byKey := make(map[candKey]*plan.Candidate, len(degradedRank))
	for _, c := range degradedRank {
		byKey[candKey{c.MatrixIdx, c.ProgIdx}] = c
	}
	res := &DegradeResult{
		Pristine:     cfg.Sys,
		Degraded:     degraded,
		Algo:         algo,
		PristineRank: pristine,
		DegradedRank: degradedRank,
		DegradedAt:   make([]float64, len(pristine)),
	}
	for i, c := range pristine {
		d, ok := byKey[candKey{c.MatrixIdx, c.ProgIdx}]
		if !ok {
			return nil, fmt.Errorf("eval: candidate (matrix %d, program %d) missing from degraded run",
				c.MatrixIdx, c.ProgIdx)
		}
		res.DegradedAt[i] = d.Predicted
	}
	// Degraded scores walked in pristine rank order: sorted means the
	// fault preserves the ranking, every out-of-order pair is a flip.
	res.Inversions = plan.CountInversions(res.DegradedAt)
	n := len(pristine)
	res.MaxPairs = n * (n - 1) / 2
	if res.MaxPairs > 0 {
		res.Tau = float64(res.Inversions) / float64(res.MaxPairs)
	}

	pb, db := pristine[0], degradedRank[0]
	res.BestShifted = pb.MatrixIdx != db.MatrixIdx || pb.ProgIdx != db.ProgIdx
	res.StaleTime = res.DegradedAt[0]
	res.ReplanTime = db.Predicted
	if res.ReplanTime > 0 {
		res.ReplanSpeedup = res.StaleTime / res.ReplanTime
	} else {
		res.ReplanSpeedup = 1
	}
	return res, nil
}

// BuildDegradeTable renders the comparison: one row per rank of the
// degraded top-k, showing where the candidate sat in the pristine ranking
// and both predicted times — the movement is the visible ranking shift.
func BuildDegradeTable(r *DegradeResult, k int) *Table {
	if k <= 0 || k > len(r.DegradedRank) {
		k = len(r.DegradedRank)
	}
	pristineRankOf := make(map[candKey]int, len(r.PristineRank))
	for i, c := range r.PristineRank {
		pristineRankOf[candKey{c.MatrixIdx, c.ProgIdx}] = i
	}
	t := &Table{
		Caption: fmt.Sprintf("Degraded ranking on %s (τ-distance %.3f, %d/%d pairs flipped)",
			r.Degraded.Name, r.Tau, r.Inversions, r.MaxPairs),
		Header: []string{"Rank", "Pristine rank", "Matrix", "Program", "Algo", "Degraded (s)", "Pristine (s)"},
	}
	for i := 0; i < k; i++ {
		c := r.DegradedRank[i]
		pr := pristineRankOf[candKey{c.MatrixIdx, c.ProgIdx}]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d", pr+1),
			c.Matrix.String(),
			c.Program.String(),
			cost.FormatAlgos(r.Algo, c.StepAlgos),
			degradeSecs(c.Predicted),
			degradeSecs(r.PristineRank[pr].Predicted),
		})
	}
	return t
}

// degradeSecs renders a predicted time, spelling out the never-completes
// case a down link produces.
func degradeSecs(v float64) string {
	if math.IsInf(v, 1) {
		return "∞ (down link)"
	}
	return secs(v)
}
