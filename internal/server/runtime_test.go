package server

import (
	"net/http/httptest"
	"sync"
	"testing"

	"cluseq/internal/obs"
)

// TestConcurrentScrapes drives scrapes from several goroutines at once.
// Every scrape refreshes the cluseqd_go_* gauges from runtime/metrics,
// whose Read reuses the samples' storage; the race detector cannot see
// the runtime's writes, so the test checks that every exposition parses
// and carries the runtime gauges.
func TestConcurrentScrapes(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
				ms, err := obs.ParsePrometheus(w.Body)
				if err != nil {
					t.Error(err)
					return
				}
				v := map[string]float64{}
				for _, m := range ms {
					v[m.ID()] = m.Value
				}
				if v["cluseqd_go_goroutines"] < 1 || v["cluseqd_go_heap_bytes"] <= 0 {
					t.Errorf("runtime gauges unset: goroutines %v, heap %v", v["cluseqd_go_goroutines"], v["cluseqd_go_heap_bytes"])
					return
				}
			}
		}()
	}
	wg.Wait()
}
