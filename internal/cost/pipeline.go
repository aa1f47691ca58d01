package cost

import (
	"fmt"

	"p2/internal/lower"
)

// PipelinedTimeSteps estimates executing a reduction program with its
// payload split into `buckets` equal parts that flow through the program's
// steps as a pipeline, the way gradient-bucketing frameworks (Horovod, DDP)
// and BlueConnect-style pipelined hierarchical reductions operate: bucket b
// can run step s+1 while bucket b+1 runs step s. stepAlgos is the per-step
// algorithm assignment (nil = m.Algo for every step).
//
// With per-step times t_s evaluated at payload D/B, the makespan of a
// B-bucket pipeline over S stages is
//
//	Σ_s t_s(D/B)  +  (B−1) · max_s t_s(D/B)
//
// (fill the pipe once, then the bottleneck stage paces the remaining B−1
// buckets). Bucketing trades bandwidth efficiency for overlap: per-step
// latency terms are paid per bucket, so very large B loses. This is an
// extension beyond the paper, which reduces the full payload in one shot.
func (m *Model) PipelinedTimeSteps(p *lower.Program, buckets int, stepAlgos []Algorithm) float64 {
	if buckets < 1 {
		panic(fmt.Sprintf("cost: PipelinedTimeSteps with %d buckets", buckets))
	}
	if stepAlgos != nil && len(stepAlgos) != len(p.Steps) {
		panic(fmt.Sprintf("cost: %d step algorithms for %d steps", len(stepAlgos), len(p.Steps)))
	}
	scaled := Model{Sys: m.Sys, Algo: m.Algo, Bytes: m.Bytes / float64(buckets)}
	s := getScorer()
	sum, worst := 0.0, 0.0
	for i, st := range p.Steps {
		algo := m.Algo
		if stepAlgos != nil {
			algo = stepAlgos[i]
		}
		t := s.StepTimeAlgo(&scaled, st, algo)
		sum += t
		if t > worst {
			worst = t
		}
	}
	putScorer(s)
	return sum + float64(buckets-1)*worst
}

// OptimalBucketsSteps scans bucket counts 1..maxBuckets and returns the
// count minimizing PipelinedTimeSteps together with that time.
func OptimalBucketsSteps(m *Model, p *lower.Program, maxBuckets int, stepAlgos []Algorithm) (int, float64) {
	if maxBuckets < 1 {
		maxBuckets = 1
	}
	bestB, bestT := 1, m.PipelinedTimeSteps(p, 1, stepAlgos)
	for b := 2; b <= maxBuckets; b++ {
		if t := m.PipelinedTimeSteps(p, b, stepAlgos); t < bestT {
			bestB, bestT = b, t
		}
	}
	return bestB, bestT
}
