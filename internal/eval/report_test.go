package eval

import (
	"strings"
	"testing"

	"p2/internal/cost"
	"p2/internal/topology"
)

func TestJSONRoundTrip(t *testing.T) {
	r := run416(t, cost.Ring)
	data, err := ToJSON([]*Result{r})
	if err != nil {
		t.Fatal(err)
	}
	back := decodeJSON[ResultJSON](t, data)
	if len(back) != 1 {
		t.Fatalf("decoded %d results", len(back))
	}
	rj := back[0]
	if rj.System != "a100-4node" || rj.Algorithm != "Ring" {
		t.Errorf("metadata mismatch: %+v", rj)
	}
	if len(rj.Matrices) != len(r.Matrices) {
		t.Fatalf("matrices = %d, want %d", len(rj.Matrices), len(r.Matrices))
	}
	for mi, mj := range rj.Matrices {
		if len(mj.Programs) != len(r.Matrices[mi].Programs) {
			t.Errorf("matrix %d: programs %d != %d", mi, len(mj.Programs), len(r.Matrices[mi].Programs))
		}
		if mj.Matrix != r.Matrices[mi].Matrix.String() {
			t.Errorf("matrix %d name mismatch", mi)
		}
		for pi, pj := range mj.Programs {
			if pj.Measured != r.Matrices[mi].Programs[pi].Measured {
				t.Errorf("matrix %d program %d measured mismatch", mi, pi)
			}
			if pj.Steps <= 0 {
				t.Errorf("matrix %d program %d has %d steps", mi, pi, pj.Steps)
			}
		}
	}
}

func TestConfigString(t *testing.T) {
	cfg := Config{Sys: topology.A100System(4), Axes: []int{4, 16}, ReduceAxes: []int{0}, Algos: []cost.Algorithm{cost.Tree}}
	s := cfg.String()
	for _, want := range []string{"a100-4node", "[4 16]", "red[0]", "Tree"} {
		if !strings.Contains(s, want) {
			t.Errorf("Config.String() = %q missing %q", s, want)
		}
	}
}
