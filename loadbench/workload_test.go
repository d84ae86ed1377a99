package main

import (
	"bytes"
	"testing"
	"time"
)

func TestPlanIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, b := w.Plan(7, 4), w.Plan(7, 4)
			if !samePlan(a, b) {
				t.Fatal("the same seed gave different request lists")
			}
			if c := w.Plan(8, 4); samePlan(a, c) {
				t.Fatal("a different seed gave the same request lists")
			}
		})
	}
}

func samePlan(a, b Plan) bool {
	if len(a.Sat) != len(b.Sat) || len(a.Fixed) != len(b.Fixed) || len(a.Prefill) != len(b.Prefill) {
		return false
	}
	for i := range a.Due {
		if a.Due[i] != b.Due[i] {
			return false
		}
	}
	for _, pair := range [][2][]Request{{a.Sat, b.Sat}, {a.Fixed, b.Fixed}, {a.Prefill, b.Prefill}, {a.Probe, b.Probe}} {
		for i := range pair[0] {
			x, y := &pair[0][i], &pair[1][i]
			if x.Key != y.Key || x.Gzip != y.Gzip || x.Job != y.Job || !bytes.Equal(x.Body.Bytes(), y.Body.Bytes()) {
				return false
			}
		}
	}
	return true
}

func TestPlanSendsWholeBlocksOverThePhase(t *testing.T) {
	for _, w := range workloads {
		p := w.Plan(3, 10)
		if len(p.Fixed) == 0 || len(p.Fixed)%w.Block != 0 || len(p.Fixed) != len(p.Due) {
			t.Errorf("%s: %d fixed requests, %d due times, block %d", w.Name, len(p.Fixed), len(p.Due), w.Block)
		}
		for i, d := range p.Due {
			if d < 0 || d >= p.FixedDur || (i > 0 && d < p.Due[i-1]) {
				t.Fatalf("%s: due time %d = %v out of order or outside [0, %v)", w.Name, i, d, p.FixedDur)
			}
		}
		if p.SatDur+p.FixedDur != 10*time.Second {
			t.Errorf("%s: phases last %v + %v", w.Name, p.SatDur, p.FixedDur)
		}
	}
}

func TestInlineMixHitsEightyFivePercent(t *testing.T) {
	w, _ := workloadByName("inline_parse")
	plan := w.Plan(9, 10)
	hot := map[string]bool{}
	for _, q := range plan.Prefill {
		hot[q.Key] = true
	}
	hits := 0
	for _, q := range plan.Fixed {
		if hot[q.Key] {
			hits++
		}
	}
	if want := len(plan.Fixed) * inlineHits / inlineBlock; hits != want {
		t.Fatalf("%d of %d fixed requests hit the prefilled set, want %d", hits, len(plan.Fixed), want)
	}
	for _, q := range plan.Fixed {
		if len(q.Body.parts) > 1 && !bytes.Contains(q.Body.Bytes(), []byte("_u")) {
			t.Fatalf("renamed body lacks its fresh name: %s", q.Key)
		}
	}
}

func TestJobResubmissionsFollowTheirKeys(t *testing.T) {
	w, _ := workloadByName("jobs_journal")
	plan := w.Plan(2, 10)
	seen := map[string]bool{}
	resub := 0
	for _, q := range plan.Fixed {
		if !q.Job {
			t.Fatalf("%s is not a job", q.Key)
		}
		if seen[q.Key] {
			resub++
		}
		seen[q.Key] = true
	}
	if resub != len(plan.Fixed)/3 {
		t.Fatalf("%d resubmissions of %d jobs, want a third", resub, len(plan.Fixed))
	}
}
