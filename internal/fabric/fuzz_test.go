package fabric

// Fuzzing the coordinator's wire format: whatever bytes arrive as a
// lease, heartbeat or result body, the coordinator answers with a
// status the worker knows how to read (200, 400, 409 or 422), never a
// 5xx and never a panic. Run with
//
//	go test ./internal/fabric -run='^$' -fuzz=FuzzCoordinatorRPC
//
// (`make fuzz` wraps a short run); the seed corpus below also executes on
// every plain `go test`.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/sim"
)

func FuzzCoordinatorRPC(f *testing.F) {
	ctx := context.Background()
	spec := testJob(128) // 2 chunks: one default lease covers the job
	runner, err := NewRunner(spec)
	if err != nil {
		f.Fatal(err)
	}
	frag, _, err := runner.RunRange(ctx, 1, sim.ChunkRange{Lo: 0, Hi: 2}, EngineHooks{})
	if err != nil {
		f.Fatal(err)
	}
	// Seed corpus: the result fragment a worker would post for the
	// granted lease, the same fragment with a chunk index outside the
	// job, and the smaller request bodies.
	valid, err := json.Marshal(ResultPayload{Worker: "w", Lease: "lease-1", Checkpoint: frag})
	if err != nil {
		f.Fatal(err)
	}
	outside := *frag
	outside.Chunks = append([]sim.ChunkRecord(nil), frag.Chunks...)
	outside.Chunks[0].Index = 2
	outOfRange, err := json.Marshal(ResultPayload{Worker: "w", Lease: "lease-1", Checkpoint: &outside})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(outOfRange)
	f.Add([]byte(`{"worker":"w","lease":"lease-1"}`))
	f.Add([]byte(`{"worker":"w"}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := NewCoordinator(ctx, spec, CoordinatorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if lr, _ := c.grant("w"); lr.Lease == nil || lr.Lease.ID != "lease-1" {
			t.Fatalf("first grant = %+v, want lease-1", lr)
		}
		type rpc struct {
			path string
			body []byte
		}
		rpcs := []rpc{{"/v1/lease", body}, {"/v1/heartbeat", body}, {"/v1/result", body}}
		// The envelope carries JSON only; a body it refuses goes raw.
		if env, err := sim.EncodeEnvelope(body); err == nil {
			rpcs = append(rpcs, rpc{"/v1/result", env})
		}
		h := c.Handler()
		for _, rpc := range rpcs {
			req := httptest.NewRequest(http.MethodPost, rpc.path, bytes.NewReader(rpc.body))
			req.Header.Set(WorkerHeader, "w")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusUnprocessableEntity:
			default:
				t.Errorf("POST %s answered %d: %s", rpc.path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			}
		}
	})
}
