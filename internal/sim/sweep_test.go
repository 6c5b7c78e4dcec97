package sim

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/phase"
	"phasetune/internal/transition"
	"phasetune/internal/workload"
)

func testSuite(t testing.TB) []*workload.Benchmark {
	t.Helper()
	suite, err := workload.Suite(exec.DefaultCostModel(), amp.Quad2Fast2Slow())
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

func TestImageCacheSingleflight(t *testing.T) {
	suite := testSuite(t)
	c := NewImageCache()
	spec := ImageSpec{
		Params: transition.Params{Technique: transition.Loop, MinSize: 45, PropagateThroughUntyped: true},
		Typing: phase.Options{K: 2, MinBlockInstrs: 5},
	}
	cm := exec.DefaultCostModel()

	const goroutines = 16
	arts := make([]*Artifact, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			art, err := c.Get(suite[0].Prog, spec, cm)
			if err != nil {
				t.Error(err)
				return
			}
			arts[i] = art
		}(i)
	}
	wg.Wait()

	stats := c.Stats()
	if stats.Misses != 1 {
		t.Errorf("pipeline ran %d times for %d concurrent requests, want 1", stats.Misses, goroutines)
	}
	if stats.Hits != goroutines-1 {
		t.Errorf("hits = %d, want %d", stats.Hits, goroutines-1)
	}
	for i := 1; i < goroutines; i++ {
		if arts[i] != arts[0] {
			t.Fatalf("request %d got a different artifact pointer", i)
		}
	}
}

// TestImageCacheHashesProgramOnce pins that concurrent first requests for
// one program share a single encoding, even when their image specs differ
// and so miss the artifact singleflight.
func TestImageCacheHashesProgramOnce(t *testing.T) {
	cm := exec.DefaultCostModel()
	fresh, err := workload.Generate(workload.ServingSpecs()[0], cm, amp.Quad2Fast2Slow())
	if err != nil {
		t.Fatal(err)
	}
	encodes := countEncodes(t)
	c := NewImageCache()

	const goroutines = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			<-start
			spec := ImageSpec{
				Params: transition.Params{Technique: transition.Loop, MinSize: 40 + i, PropagateThroughUntyped: true},
				Typing: phase.Options{K: 2, MinBlockInstrs: 5},
			}
			if _, err := c.Get(fresh.Prog, spec, cm); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if n := encodes.Load(); n != 1 {
		t.Errorf("program encoded %d times for %d concurrent requests, want 1", n, goroutines)
	}
	if stats := c.Stats(); stats.Misses != goroutines {
		t.Errorf("misses = %d, want %d distinct image specs", stats.Misses, goroutines)
	}
}

func TestImageCacheKeyNormalization(t *testing.T) {
	suite := testSuite(t)
	c := NewImageCache()
	cm := exec.DefaultCostModel()
	params := transition.Params{Technique: transition.Interval, MinSize: 45, PropagateThroughUntyped: true}
	topts := phase.Options{K: 2, MinBlockInstrs: 5}

	// With no error injection, the error seed must not fragment the cache.
	a1, err := c.Get(suite[0].Prog, ImageSpec{Params: params, Typing: topts, ErrSeed: 1}, cm)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Get(suite[0].Prog, ImageSpec{Params: params, Typing: topts, ErrSeed: 99}, cm)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("error seed fragmented the cache with ErrFrac == 0")
	}

	// Baseline entries ignore technique parameters entirely.
	b1, err := c.Get(suite[0].Prog, ImageSpec{Baseline: true, Params: params}, cm)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.Get(suite[0].Prog, ImageSpec{Baseline: true}, cm)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("baseline cache entries fragmented by technique params")
	}

	// With error injection on, the seed genuinely distinguishes artifacts.
	e1, err := c.Get(suite[0].Prog, ImageSpec{Params: params, Typing: topts, ErrFrac: 0.3, ErrSeed: 1}, cm)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c.Get(suite[0].Prog, ImageSpec{Params: params, Typing: topts, ErrFrac: 0.3, ErrSeed: 2}, cm)
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e2 {
		t.Error("distinct error seeds shared one artifact")
	}
}

func TestForEachRunsAll(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var count atomic.Int64
		hit := make([]bool, 100)
		err := ForEach(context.Background(), len(hit), workers, func(i int) error {
			hit[i] = true
			count.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if count.Load() != int64(len(hit)) {
			t.Errorf("workers=%d: ran %d of %d", workers, count.Load(), len(hit))
		}
		for i, h := range hit {
			if !h {
				t.Fatalf("workers=%d: index %d never ran", workers, i)
			}
		}
	}
}

func TestForEachStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := ForEach(context.Background(), 1000, 4, func(i int) error {
		ran.Add(1)
		if i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran.Load() == 1000 {
		t.Error("all work ran despite an early failure")
	}
}

func TestForEachHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEach(ctx, 100, 4, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
