package serve

import (
	"testing"

	"emmver/internal/spec"
)

// counterReq asks for the counter CE at the given depth bound; distinct
// depths give distinct dedup keys.
func counterReq(depth int) Request {
	return Request{Format: "verilog", Source: counterSrc, Prop: 0,
		Spec: spec.Spec{Engine: spec.EngineBMC3, Depth: depth}}
}

func (s *Server) inFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byKey)
}

// TestDedupIndexReleasedOnFinish checks that the in-flight dedup index
// holds only unfinished jobs: a duplicate of a queued or running job
// attaches to it, and every finished job (solved, failed or answered from
// the cache) leaves the index.
func TestDedupIndexReleasedOnFinish(t *testing.T) {
	s := newIdle(Config{Workers: 2})
	t.Cleanup(s.Shutdown)

	first, _, err := s.submit(counterReq(12))
	if err != nil {
		t.Fatal(err)
	}
	if dup, _, _ := s.submit(counterReq(12)); dup != first {
		t.Fatalf("duplicate of a queued job got %s, want %s", dup.id, first.id)
	}
	first.setState("running")
	if dup, _, _ := s.submit(counterReq(12)); dup != first {
		t.Fatalf("duplicate of a running job got %s, want %s", dup.id, first.id)
	}
	if got := s.inFlight(); got != 1 {
		t.Fatalf("in-flight index holds %d entries, want 1", got)
	}

	s.startWorkers()
	<-first.done
	const distinct = 6
	var jobs []*job
	for d := 0; d < distinct; d++ {
		j, _, err := s.submit(counterReq(13 + d))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.done
		if st := j.status(); st.State != "done" || st.Verdict.Kind != "CE" {
			t.Fatalf("job %s: %+v", j.id, st)
		}
	}
	// A resubmission answered from the cache at submit time.
	hit, _, err := s.submit(counterReq(12))
	if err != nil {
		t.Fatal(err)
	}
	if hit == first || !hit.status().Cached {
		t.Fatalf("resubmission after completion: %+v, want a new cached job", hit.status())
	}
	if got := s.inFlight(); got != 0 {
		t.Fatalf("after %d completed submissions the in-flight index holds %d entries, want 0", distinct+2, got)
	}
}
