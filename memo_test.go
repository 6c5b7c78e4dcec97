package phasetune_test

import (
	"context"
	"testing"

	"phasetune"
)

// TestSessionMemoInvisibleAndWarm pins the public cost-table contract:
// sessions share one block cost-table store by default, results are
// byte-identical with private per-run tables (WithoutSegmentMemo), and a
// warm rerun prices every step from tables the cold sweep built.
func TestSessionMemoInvisibleAndWarm(t *testing.T) {
	suite, err := phasetune.Suite()
	if err != nil {
		t.Fatal(err)
	}
	specs := sweepGrid(t, suite)
	ctx := context.Background()

	bare := phasetune.NewSession(phasetune.WithoutSegmentMemo(), phasetune.WithWorkers(2))
	want, err := bare.Sweep(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if stats := bare.MemoStats(); stats != (phasetune.MemoStats{}) {
		t.Errorf("WithoutSegmentMemo session reports a shared store: %+v", stats)
	}

	sess := phasetune.NewSession(phasetune.WithWorkers(2))
	cold, err := sess.Sweep(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	coldStats := sess.MemoStats()
	if coldStats.Lanes == 0 || coldStats.Misses != uint64(coldStats.Lanes) || coldStats.RecordedSteps == 0 {
		t.Errorf("cold sweep built no tables: %+v", coldStats)
	}
	warm, err := sess.Sweep(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		ref := encode(t, want[i])
		if got := encode(t, cold[i]); string(got) != string(ref) {
			t.Errorf("spec %d: cold shared-table result differs from private-table run", i)
		}
		if got := encode(t, warm[i]); string(got) != string(ref) {
			t.Errorf("spec %d: warm shared-table result differs from private-table run", i)
		}
	}
	stats := sess.MemoStats()
	if stats.Lanes != coldStats.Lanes || stats.Misses != coldStats.Misses {
		t.Errorf("warm sweep built new tables: cold %+v, warm %+v", coldStats, stats)
	}
	if stats.Hits <= coldStats.Hits || stats.HitRate() <= coldStats.HitRate() {
		t.Errorf("warm sweep reused no tables: cold %+v, warm %+v", coldStats, stats)
	}
	if stats.Chunks != 0 || stats.ReplayedSteps != 0 {
		t.Errorf("table store reports replay: %+v", stats)
	}
}
