package main

import (
	"path/filepath"
	"testing"
	"time"

	"eilid/internal/core"
	"eilid/internal/fleet"
)

// TestPercentileRule pins the rule every reported percentile obeys: the
// highest percentile reportable from n samples is the highest with at
// least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n, highest int
	}{
		{19, 0}, {20, 50}, {21, 52}, {99, 89}, {100, 90}, {110, 90}, {1000, 99},
	} {
		highest := 0
		for p := 50; p <= 99; p++ {
			xs := make([]float64, tc.n)
			if _, err := percentile(xs, float64(p)); err == nil {
				highest = p
			}
		}
		if highest != tc.highest {
			t.Errorf("highest percentile of %d samples = %d, want %d", tc.n, highest, tc.highest)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if v, err := percentile(xs, 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with ten samples beyond it", v, err)
	}
	if v, err := percentile(xs, 50); err != nil || v != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50", v, err)
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Error("p90 of 99 samples has only nine beyond it and must be refused")
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] has children [10,30] and [20,50], which overlap, and
	// [90,120], which outlives it; [10,30] has a child [15,25].
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1, Batch: 1},
		{Name: "a", Start: 10, End: 30, Parent: 0, Batch: 1},
		{Name: "b", Start: 20, End: 50, Parent: 0, Batch: 1},
		{Name: "c", Start: 90, End: 120, Parent: 0, Batch: 1},
		{Name: "a.child", Start: 15, End: 25, Parent: 1, Batch: 1},
		{Name: "root", Start: 200, End: 260, Parent: -1, Batch: 0},
	}
	got := selfTimes(spans, func(*span) bool { return true })
	want := map[string]time.Duration{"root": 50 + 60, "a": 10, "b": 30, "c": 30, "a.child": 10}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, got[name], d)
		}
	}
	if got := selfTimes(spans, after)["root"]; got != 50 {
		t.Errorf("self time of root after the warm-up batch = %d, want 50", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(time.Now())
	tr.job, tr.batch = 7, 2
	tr.begin("outer")
	tr.begin("inner")
	tr.end()
	tr.begin("second")
	tr.end()
	tr.end()
	tr.begin("next")
	tr.end()
	wantParent := []int{-1, 0, 0, -1}
	for i, s := range tr.spans {
		if s.Parent != wantParent[i] || s.Job != 7 || s.Batch != 2 || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d, job 7, batch 2", i, s, wantParent[i])
		}
	}
}

func TestSubmissionSeeds(t *testing.T) {
	warm := map[uint64]bool{}
	for _, s := range warmSeeds {
		warm[s] = true
	}
	cold := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		s := submissionSeed(9, i)
		if s != submissionSeed(9, i) {
			t.Fatalf("submission %d: seed not reproducible", i)
		}
		if isCold := i%coldEvery == coldEvery-1; isCold {
			if warm[s] || cold[s] || s < 1<<32 {
				t.Errorf("submission %d: cold seed %d collides or is not fresh", i, s)
			}
			cold[s] = true
		} else if !warm[s] {
			t.Errorf("submission %d: seed %d is not a warm seed", i, s)
		}
	}
	if submissionSeed(9, coldEvery-1) == submissionSeed(10, coldEvery-1) {
		t.Error("cold seeds do not depend on the workload seed")
	}
}

// TestReplicaByteIdentity replays a small spec with apps, attacks and
// generated scenarios on every column and requires the runner's journal
// byte for byte; the no-monitor twin pass, which runs different work,
// must not reproduce it.
func TestReplicaByteIdentity(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := fleet.BatchSpec{
		Matrix: fleet.MatrixSpec{
			Apps: []string{"TempSensor"}, Scenarios: []string{"stack-smash", "fnptr-hijack"},
			Defenses: columns, Generated: fleet.GeneratedSpec{Seed: 7, Count: 8},
		},
		Exec: fleet.ExecSpec{Workers: workers},
	}
	r, err := fleet.NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ref, err := runJournal(r, filepath.Join(dir, "ref.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Now()
	rp, err := newReplay(p, spec, r.Jobs(), newTracer(epoch))
	if err != nil {
		t.Fatal(err)
	}
	ws, emit := newWorkers(epoch), newTracer(epoch)
	var cycles []uint64
	for b := 0; b < 2; b++ {
		path := filepath.Join(dir, "replay.ndjson")
		var digest string
		if digest, _, cycles, err = rp.replayBatch(ws, emit, b, false, path); err != nil {
			t.Fatal(err)
		}
		if digest != ref.digest {
			t.Fatalf("batch %d: %v", b, replicaError(filepath.Join(dir, "ref.ndjson"), path))
		}
	}
	rp.twinBudgets = cycles
	digest, _, _, err := rp.replayBatch(newWorkers(epoch), newTracer(epoch), 0, true, filepath.Join(dir, "twin.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if digest == ref.digest {
		t.Error("the twin pass reproduced the journal; the byte comparison cannot tell different work apart")
	}
}
