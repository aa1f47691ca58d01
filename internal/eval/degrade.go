package eval

import (
	"context"
	"fmt"
	"math"

	"p2/internal/cost"
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
	// Algos is the planner's algorithm set (single entry pins it; nil is
	// {Ring}, as in p2.Request).
	Algos []cost.Algorithm
	// Bytes is the per-device payload; 0 means the paper default.
	Bytes float64
	// Parallelism is the planner worker count (0 = GOMAXPROCS).
	Parallelism int
}

// DegradeResult compares the pristine and degraded rankings of one request.
type DegradeResult struct {
	// Degraded is the faulted system the pristine one is compared with.
	Degraded *topology.System
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

	// BestShifted reports whether re-planning on the degraded fabric picks
	// a strictly faster candidate than the pristine winner. StaleTime is
	// the degraded time of the pristine winner — what a plan chosen while
	// ignoring the fault would actually cost — and ReplanTime the degraded
	// winner's time (+Inf when no candidate avoids a down link).
	// ReplanSpeedup = StaleTime/ReplanTime > 1 is the payoff of a shift,
	// +Inf when the stale plan routes traffic over a down link (it would
	// never finish) while re-planning finds a finite route, and 1 when the
	// best did not shift.
	BestShifted   bool
	StaleTime     float64
	ReplanTime    float64
	ReplanSpeedup float64
}

// candKey identifies one candidate across the two runs: both rankings
// enumerate the same matrices in the same order and synthesize the same
// programs per matrix (pruning is disabled), so (MatrixIdx, ProgIdx) is a
// stable identity.
type candKey struct{ mi, pi int32 }

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
	spec, err := plan.Resolve(cfg.Sys, plan.Reduction{Axes: cfg.Axes, ReduceAxes: cfg.ReduceAxes, Algos: cfg.Algos, Bytes: cfg.Bytes})
	if err != nil {
		return nil, err
	}
	// Full ranking: ranking shift needs every candidate. Anytime partial
	// rankings are useless for a shift comparison: cancellation fails the
	// run like any other error.
	runOn := func(sys *topology.System) ([]*plan.Candidate, error) {
		model := &cost.Model{Sys: sys, Algo: spec.Model.Algo, Bytes: spec.Model.Bytes}
		cands, _, err := rankAll(ctx, model, cfg.Axes, spec, plan.Options{Parallelism: cfg.Parallelism})
		return cands, err
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
		Degraded:     degraded,
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

	res.StaleTime = res.DegradedAt[0]
	res.ReplanTime = degradedRank[0].Predicted
	// Only a strictly faster winner is a shift: among tied candidates
	// (every one of them when none avoids a down link) rank order alone
	// picks the first, and re-planning gains nothing.
	res.BestShifted = res.ReplanTime < res.StaleTime
	res.ReplanSpeedup = 1
	if res.BestShifted {
		res.ReplanSpeedup = res.StaleTime / res.ReplanTime
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
			c.AlgoString(),
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
