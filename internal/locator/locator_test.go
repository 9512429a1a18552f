package locator

import (
	"fmt"
	"sync"
	"testing"
)

func mustRegister(t *testing.T, s *Service, id string, r Replica) {
	t.Helper()
	if err := s.Register(id, r); err != nil {
		t.Fatal(err)
	}
}

func urls(res Resolution) []string {
	out := make([]string, len(res.Replicas))
	for i, r := range res.Replicas {
		out[i] = r.URL
	}
	return out
}

// Same-site replicas come first, by priority; then the others, by
// priority; URL breaks the remaining ties.
func TestResolutionOrder(t *testing.T) {
	s := New()
	mustRegister(t, s, "ds-001", Replica{URL: "gsiftp://remote:2811/d1", Site: "fnal", Priority: 5})
	mustRegister(t, s, "ds-001", Replica{URL: "gsiftp://local:2811/d1", Site: "slac", Priority: 1})
	mustRegister(t, s, "ds-001", Replica{URL: "gsiftp://local2:2811/d1", Site: "slac", Priority: 9})
	mustRegister(t, s, "ds-001", Replica{URL: "file:///b", Site: "cern", Priority: 1})
	mustRegister(t, s, "ds-001", Replica{URL: "file:///a", Site: "cern", Priority: 1})

	for site, want := range map[string]string{
		"slac": "gsiftp://local2:2811/d1 gsiftp://local:2811/d1 gsiftp://remote:2811/d1 file:///a file:///b",
		"fnal": "gsiftp://remote:2811/d1 gsiftp://local2:2811/d1 file:///a file:///b gsiftp://local:2811/d1",
		"cern": "file:///a file:///b gsiftp://local2:2811/d1 gsiftp://remote:2811/d1 gsiftp://local:2811/d1",
		"":     "gsiftp://local2:2811/d1 gsiftp://remote:2811/d1 file:///a file:///b gsiftp://local:2811/d1",
	} {
		res, err := s.Resolve("ds-001", site)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(urls(res)); got != "["+want+"]" {
			t.Errorf("from %q: %s\n want [%s]", site, got, want)
		}
	}
	if _, err := s.Resolve("ds-404", "slac"); err == nil {
		t.Fatal("unknown dataset resolved")
	}
}

// A URL is registered once per dataset; the same URL may serve another
// dataset, and an empty ID or URL is refused.
func TestRegisterRejectsDuplicatesAndBlanks(t *testing.T) {
	s := New()
	mustRegister(t, s, "ds-001", Replica{URL: "gsiftp://local:2811/d1", Site: "slac"})
	if err := s.Register("ds-001", Replica{URL: "gsiftp://local:2811/d1", Site: "x", Priority: 3}); err == nil {
		t.Fatal("duplicate replica accepted")
	}
	mustRegister(t, s, "ds-002", Replica{URL: "gsiftp://local:2811/d1", Site: "slac"})
	if err := s.Register("", Replica{URL: "file:///x"}); err == nil {
		t.Fatal("empty dataset ID accepted")
	}
	if err := s.Register("ds-003", Replica{Site: "slac"}); err == nil {
		t.Fatal("empty URL accepted")
	}
	res, err := s.Resolve("ds-001", "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Replicas) != 1 || res.Replicas[0].Site != "slac" {
		t.Fatalf("duplicate changed the registry: %+v", res.Replicas)
	}
}

// Resolve hands out a copy: the caller may reorder or overwrite it
// without touching the registry or another caller's answer.
func TestResolveReturnsACopy(t *testing.T) {
	s := New()
	mustRegister(t, s, "ds", Replica{URL: "file:///a", Priority: 2})
	mustRegister(t, s, "ds", Replica{URL: "file:///b", Priority: 1})
	first, err := s.Resolve("ds", "")
	if err != nil {
		t.Fatal(err)
	}
	first.Replicas[0], first.Replicas[1] = first.Replicas[1], first.Replicas[0]
	first.Replicas[0].URL = "file:///mangled"
	again, err := s.Resolve("ds", "")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(urls(again)); got != "[file:///a file:///b]" {
		t.Fatalf("after the caller reordered its answer, Resolve = %s", got)
	}
}

// Register and Resolve from several goroutines at once; run with -race.
// Every replica registered is resolved in the end, each exactly once.
func TestConcurrentRegisterResolve(t *testing.T) {
	s := New()
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ds := fmt.Sprintf("ds-%d", i%5)
				if err := s.Register(ds, Replica{URL: fmt.Sprintf("file:///w%d/%d", w, i), Site: fmt.Sprint(w), Priority: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				res, err := s.Resolve(fmt.Sprintf("ds-%d", i%5), fmt.Sprint(w))
				if err != nil {
					continue // nothing registered for it yet
				}
				// Reordering the answer must not race with other readers.
				r := res.Replicas
				r[0], r[len(r)-1] = r[len(r)-1], r[0]
			}
		}(w)
	}
	wg.Wait()
	seen := map[string]bool{}
	for d := 0; d < 5; d++ {
		res, err := s.Resolve(fmt.Sprintf("ds-%d", d), "")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Replicas {
			if seen[r.URL] {
				t.Fatalf("%s resolved twice", r.URL)
			}
			seen[r.URL] = true
		}
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("resolved %d replicas, registered %d", len(seen), writers*perWriter)
	}
}
