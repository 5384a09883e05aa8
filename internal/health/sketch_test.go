package health

import (
	"testing"
)

func TestSketchRetainsHeavyHitters(t *testing.T) {
	s := NewSketch(4)
	// Streams 1..3 are heavy (many signals); 100..119 appear once each.
	for round := 0; round < 50; round++ {
		for id := uint64(1); id <= 3; id++ {
			s.Update(id, 0.5, int64(round))
		}
		s.Update(100+uint64(round%20), 0.1, int64(round))
	}
	entries := s.AppendEntries(nil)
	if len(entries) != 4 {
		t.Fatalf("sketch retains %d entries, want 4", len(entries))
	}
	found := map[uint64]SketchEntry{}
	for _, e := range entries {
		found[e.ID] = e
	}
	for id := uint64(1); id <= 3; id++ {
		e, ok := found[id]
		if !ok {
			t.Fatalf("heavy stream %d evicted: %+v", id, entries)
		}
		// Space-Saving guarantee: reported count >= true count, and the
		// overestimate is bounded by Err.
		if e.Count < 50 {
			t.Errorf("stream %d count %d underestimates true count 50", id, e.Count)
		}
		if e.Count-e.Err > 50 {
			t.Errorf("stream %d count %d - err %d exceeds true count 50", id, e.Count, e.Err)
		}
	}
}

func TestSketchUpdatesLastSignal(t *testing.T) {
	s := NewSketch(2)
	s.Update(7, 0.25, 100)
	s.Update(7, 0.75, 200)
	entries := s.AppendEntries(nil)
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	e := entries[0]
	if e.Count != 2 || e.LastMean != 0.75 || e.LastNanos != 200 || e.Err != 0 {
		t.Fatalf("entry = %+v, want count=2 mean=0.75 nanos=200 err=0", e)
	}
}

func TestSketchEvictionInheritsMinCount(t *testing.T) {
	s := NewSketch(2)
	s.Update(1, 0, 0)
	s.Update(1, 0, 0)
	s.Update(2, 0, 0) // min entry, count 1
	s.Update(3, 0, 0) // evicts 2: count becomes 2, err 1
	entries := s.AppendEntries(nil)
	var e3 *SketchEntry
	for i := range entries {
		if entries[i].ID == 3 {
			e3 = &entries[i]
		}
		if entries[i].ID == 2 {
			t.Fatalf("evicted stream 2 still present: %+v", entries)
		}
	}
	if e3 == nil || e3.Count != 2 || e3.Err != 1 {
		t.Fatalf("newcomer entry = %+v, want count=2 err=1", e3)
	}
}

// TestSketchUpdateDoesNotAllocate pins the hot-path contract: Update
// runs inside the fleet drain loop under the shard lock and must never
// touch the allocator.
func TestSketchUpdateDoesNotAllocate(t *testing.T) {
	s := NewSketch(8)
	id := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		id++
		s.Update(id%16, 0.5, int64(id))
	})
	if allocs != 0 {
		t.Fatalf("Sketch.Update allocates %.1f times per call, want 0", allocs)
	}
}

func TestTopKRanking(t *testing.T) {
	entries := []StreamHealth{
		{Stream: 5, Level: 1, Fill: 2, Count: 10},
		{Stream: 1, Level: 2, Fill: 0, Count: 3},
		{Stream: 9, Level: 1, Fill: 2, Count: 30},
		{Stream: 2, Level: 1, Fill: 2, Count: 30},
		{Stream: 7, Level: 0, Fill: 0, Count: 99},
	}
	top := TopK(entries, 3)
	if len(top) != 3 {
		t.Fatalf("len = %d, want 3", len(top))
	}
	// Level dominates count; within equal (level, fill, count) the lower
	// stream id ranks first for determinism.
	want := []uint64{1, 2, 9}
	for i, w := range want {
		if top[i].Stream != w {
			t.Fatalf("rank %d = stream %d, want %d (got %+v)", i, top[i].Stream, w, top)
		}
	}
}
