package sim

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
)

// mkSet builds a distinguishable checkpoint set for artifact tests.
func mkSet(seed int64) CheckpointSet {
	return CheckpointSet{
		"stage": {
			Version:   checkpointVersion,
			Kind:      "hitting",
			Seed:      seed,
			Trials:    128,
			ChunkSize: 64,
			Chunks: []ChunkRecord{
				{Index: 0, Acc: json.RawMessage(`{"n":64}`)},
			},
		},
	}
}

// artifactCounters is a test ArtifactMetrics.
type artifactCounters struct {
	retries, corrupt int
	fallbackGen      int
}

func (c *artifactCounters) ArtifactRetried()       { c.retries++ }
func (c *artifactCounters) ArtifactFallback(g int) { c.fallbackGen = g }
func (c *artifactCounters) ArtifactCorrupt()       { c.corrupt++ }

// TestArtifactRoundTrip: Save writes a checksummed envelope and Load
// returns the identical set.
func TestArtifactRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	var s ArtifactStore
	want := mkSet(42)
	if err := s.Save(path, want); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"artifact_version"`, `"crc32c"`, `"payload"`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("saved artifact missing %s:\n%s", key, raw)
		}
	}
	got, info, err := s.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 0 || info.Path != path || len(info.Corrupt) != 0 {
		t.Fatalf("LoadInfo = %+v, want generation 0 from %s", info, path)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestArtifactLegacyV1: a pre-envelope bare-JSON state file still loads.
func TestArtifactLegacyV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	want := mkSet(7)
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpointSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy load mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestArtifactMissingIsFresh: no generation on disk means an empty set,
// not an error.
func TestArtifactMissingIsFresh(t *testing.T) {
	var s ArtifactStore
	cs, info, err := s.Load(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || len(cs) != 0 {
		t.Fatalf("Load missing = %v, %v; want empty set", cs, err)
	}
	if info.Generation != -1 || info.Path != "" {
		t.Fatalf("LoadInfo = %+v, want fresh (-1)", info)
	}
}

// TestArtifactRotation: repeated saves keep the newest Keep generations,
// each one generation apart.
func TestArtifactRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	s := ArtifactStore{Keep: 3}
	for seed := int64(1); seed <= 4; seed++ {
		if err := s.Save(path, mkSet(seed)); err != nil {
			t.Fatal(err)
		}
	}
	for g, wantSeed := range map[int]int64{0: 4, 1: 3, 2: 2} {
		data, err := os.ReadFile(genPath(path, g))
		if err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
		cs, err := decodeArtifact(genPath(path, g), data)
		if err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
		if got := cs["stage"].Seed; got != wantSeed {
			t.Fatalf("generation %d holds seed %d, want %d", g, got, wantSeed)
		}
	}
	if _, err := os.ReadFile(genPath(path, 3)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("generation 3 exists; rotation did not drop the oldest (err=%v)", err)
	}
}

// TestArtifactFallback: a corrupted current generation falls back to the
// newest valid backup, reporting the corrupt file and bumping metrics.
func TestArtifactFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	met := &artifactCounters{}
	s := ArtifactStore{Keep: 3, Metrics: met}
	if err := s.Save(path, mkSet(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(path, mkSet(2)); err != nil {
		t.Fatal(err)
	}
	// Truncate the current generation mid-payload: a torn write.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cs, info, err := s.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs["stage"].Seed; got != 1 {
		t.Fatalf("fallback loaded seed %d, want 1 (the backup)", got)
	}
	if info.Generation != 1 || len(info.Corrupt) != 1 || info.Corrupt[0] != path {
		t.Fatalf("LoadInfo = %+v, want generation 1 with %s corrupt", info, path)
	}
	if met.corrupt != 1 || met.fallbackGen != 1 {
		t.Fatalf("metrics = %+v, want 1 corrupt, fallback generation 1", met)
	}
}

// TestArtifactBitFlipDetected: a single flipped payload bit fails the
// checksum and, with no backup, surfaces as ErrCorruptArtifact.
func TestArtifactBitFlipDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	s := ArtifactStore{Keep: 1}
	if err := s.Save(path, mkSet(9)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside a payload digit so the result is still JSON but
	// hashes differently.
	i := strings.Index(string(raw), `"trials":128`)
	if i < 0 {
		t.Fatalf("payload layout changed:\n%s", raw)
	}
	raw[i+len(`"trials":1`)] ^= 0x01 // 2 -> 3
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Load(path)
	if !errors.Is(err, fault.ErrCorruptArtifact) {
		t.Fatalf("Load of bit-flipped artifact = %v, want ErrCorruptArtifact", err)
	}
}

// TestArtifactRetry: transient injected write faults are retried and
// counted; the save still lands.
func TestArtifactRetry(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	met := &artifactCounters{}
	fs := &failFirstFS{FS: fault.OS, failures: 2}
	s := ArtifactStore{
		FS:      fs,
		Metrics: met,
		Retry:   fault.RetryPolicy{Attempts: 4, Jitter: func() float64 { return 0 }},
	}
	if err := s.Save(path, mkSet(5)); err != nil {
		t.Fatal(err)
	}
	if met.retries != 2 {
		t.Fatalf("counted %d retries, want 2", met.retries)
	}
	cs, _, err := s.Load(path)
	if err != nil || cs["stage"].Seed != 5 {
		t.Fatalf("post-retry load = %v, %v", cs, err)
	}
}

// TestArtifactRetryExhausted: a persistent fault surfaces after the
// attempt budget, wrapping the underlying injected error.
func TestArtifactRetryExhausted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	in := fault.NewInjector(fault.OS, 11, fault.Probs{fault.OpRename: 1})
	s := ArtifactStore{
		FS:    in,
		Retry: fault.RetryPolicy{Attempts: 3, Jitter: func() float64 { return 0 }},
	}
	err := s.Save(path, mkSet(5))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Save under p=1 rename faults = %v, want ErrInjected", err)
	}
	// The failed save must not leave temp litter behind.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("failed save leaked temp file %s", e.Name())
		}
	}
}

// failFirstFS delegates to an FS after failing the first N CreateTemp
// calls — a deterministic transient fault.
type failFirstFS struct {
	fault.FS
	failures int
}

func (f *failFirstFS) CreateTemp(dir, pattern string) (fault.File, error) {
	if f.failures > 0 {
		f.failures--
		return nil, errors.New("transient create failure")
	}
	return f.FS.CreateTemp(dir, pattern)
}

// TestMismatchErrorFields: MismatchError names the offending field with
// both values, and still matches ErrCheckpointMismatch.
func TestMismatchErrorFields(t *testing.T) {
	cp := &Checkpoint{Version: checkpointVersion, Kind: "hitting", Seed: 1, Trials: 100, ChunkSize: 64}
	cases := []struct {
		name            string
		kind            string
		seed            int64
		trials, chunk   int
		field           string
		wantSub, gotSub string
	}{
		{"kind", "sample", 1, 100, 64, "kind", "sample", "hitting"},
		{"seed", "hitting", 2, 100, 64, "seed", "2", "1"},
		{"trials", "hitting", 1, 200, 64, "trials", "200", "100"},
		{"chunk_size", "hitting", 1, 100, 32, "chunk_size", "32", "64"},
	}
	for _, tc := range cases {
		err := cp.validateFor(tc.kind, tc.seed, tc.trials, tc.chunk)
		if !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("%s: err = %v, want ErrCheckpointMismatch", tc.name, err)
		}
		var me *MismatchError
		if !errors.As(err, &me) {
			t.Fatalf("%s: err = %v, want *MismatchError", tc.name, err)
		}
		if me.Field != tc.field {
			t.Fatalf("%s: Field = %q", tc.name, me.Field)
		}
		msg := err.Error()
		if !strings.Contains(msg, tc.field) || !strings.Contains(msg, tc.wantSub) || !strings.Contains(msg, tc.gotSub) {
			t.Fatalf("%s: message %q missing field or values", tc.name, msg)
		}
	}
}
