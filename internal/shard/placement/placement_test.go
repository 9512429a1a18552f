package placement

import (
	"fmt"
	"sync"
	"testing"
)

func TestStoreRCUSemantics(t *testing.T) {
	s := NewStore[int](8)
	t0 := s.Load()
	if t0.Gen() != 0 {
		t.Fatalf("fresh table gen = %d, want 0", t0.Gen())
	}
	t1 := s.Update(func(m *Table[int]) bool {
		m.AddShard("a", 1)
		m.Place("sess", "a", false)
		return true
	})
	if t1.Gen() != 1 {
		t.Fatalf("after edit gen = %d, want 1", t1.Gen())
	}
	// The old snapshot is immutable: readers holding it see nothing.
	if _, ok := t0.Lookup("sess"); ok {
		t.Fatal("edit leaked into a previously loaded table")
	}
	if _, ok := t1.Lookup("sess"); !ok {
		t.Fatal("published table missing the placement")
	}
	// A recognized no-op publishes nothing and burns no generation.
	t2 := s.Update(func(m *Table[int]) bool { return false })
	if t2 != t1 {
		t.Fatal("no-op edit swapped the table")
	}
	if s.Load().Gen() != 1 {
		t.Fatalf("no-op edit bumped gen to %d", s.Load().Gen())
	}
}

func TestDropShardClearsAddr(t *testing.T) {
	s := NewStore[int](0)
	tb := s.Update(func(m *Table[int]) bool {
		m.AddShard("a", 1)
		m.SetAddr("a", "10.0.0.1:7000")
		return true
	})
	if tb.Addr("a") != "10.0.0.1:7000" {
		t.Fatalf("addr = %q", tb.Addr("a"))
	}
	tb = s.Update(func(m *Table[int]) bool {
		m.DropShard("a")
		return true
	})
	if got := tb.Addr("a"); got != "" {
		t.Fatalf("departed shard still advertises %q", got)
	}
	// Re-adding the shard must not resurrect the old endpoint.
	tb = s.Update(func(m *Table[int]) bool {
		m.AddShard("a", 2)
		return true
	})
	if got := tb.Addr("a"); got != "" {
		t.Fatalf("re-added shard inherited stale addr %q", got)
	}
}

// TestConcurrentLoadsDuringUpdates is the -race smoke for the RCU
// contract: readers hammer Load while writers churn placements.
func TestConcurrentLoadsDuringUpdates(t *testing.T) {
	s := NewStore[int](8)
	s.Update(func(m *Table[int]) bool {
		m.AddShard("a", 1)
		m.AddShard("b", 2)
		return true
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tb := s.Load()
				for i := 0; i < 16; i++ {
					sid := fmt.Sprintf("sess-%d", i)
					if e, ok := tb.Lookup(sid); ok {
						if _, ok := tb.Backend(e.Shard); !ok {
							t.Errorf("placed session %s on unknown shard %q", sid, e.Shard)
							return
						}
					} else if tb.Home(sid) == "" {
						t.Errorf("no home for %s on a live fabric", sid)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 400; i++ {
		sid := fmt.Sprintf("sess-%d", i%16)
		shard := "a"
		if i%2 == 1 {
			shard = "b"
		}
		s.Update(func(m *Table[int]) bool {
			m.Place(sid, shard, i%3 == 0)
			return true
		})
		if i%50 == 49 {
			s.Update(func(m *Table[int]) bool {
				m.Evict(sid)
				return true
			})
		}
	}
	close(stop)
	wg.Wait()
}
