package sim

// Durable artifact storage for checkpoint sets.
//
// The resilience layer (checkpoint/resume) is only as good as the bytes
// it finds on disk after a crash. This file hardens the on-disk side:
//
//   - every state file is a versioned envelope carrying a CRC32C
//     (Castagnoli) checksum of its payload, so truncation, torn writes
//     and bit flips are detected on load rather than parsed into a wrong
//     resume state;
//   - saves keep the last Keep generations (path, path.g1, path.g2, ...)
//     and loads fall back to the newest generation that validates,
//     reporting corrupt ones with a typed error;
//   - saves are atomic AND durable: the temp file is fsynced before the
//     rename and the directory is fsynced after it;
//   - transient write faults are retried with exponential backoff and
//     full jitter, surfaced through ArtifactMetrics.
//
// All I/O goes through fault.FS, so the chaos suite can storm this exact
// code path with seeded torn writes, rename failures and dropped fsyncs.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fault"
)

// artifactVersion is the on-disk envelope format version. Version 1 was
// the bare CheckpointSet JSON (no checksum); it is still readable.
const artifactVersion = 2

// maxGenerations bounds the fallback scan: Load inspects at most this
// many generations even when rotation failures have pushed valid state
// deeper than Keep.
const maxGenerations = 32

// artifactEnvelope is the on-disk frame of a version-2 artifact.
type artifactEnvelope struct {
	Version int             `json:"artifact_version"`
	CRC     string          `json:"crc32c"`
	Payload json.RawMessage `json:"payload"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcHex computes the CRC32C of data, formatted as 8 hex digits.
func crcHex(data []byte) string {
	return fmt.Sprintf("%08x", crc32.Checksum(data, castagnoli))
}

// ArtifactMetrics is the observability hook of the artifact layer. It is
// matched structurally (any type with these methods works) so internal/sim
// keeps its no-import relationship with internal/obs.
type ArtifactMetrics interface {
	// ArtifactRetried records one retried artifact write.
	ArtifactRetried()
	// ArtifactFallback records a load that fell back to an older
	// generation (1 = first backup, and so on).
	ArtifactFallback(generation int)
	// ArtifactCorrupt records one artifact file that failed validation.
	ArtifactCorrupt()
}

// ArtifactStore saves and loads checkpoint sets durably. The zero value
// is ready to use: real filesystem, 3 generations, default retry policy,
// no metrics.
type ArtifactStore struct {
	// FS is the filesystem seam; nil means the real filesystem.
	FS fault.FS
	// Keep is how many generations to retain (current + Keep-1 backups);
	// values below 1 mean 3.
	Keep int
	// Retry paces retries of transient write faults; zero value means
	// fault.RetryPolicy defaults (4 attempts, 5ms base, 250ms cap).
	Retry fault.RetryPolicy
	// Metrics, when non-nil, observes retries, fallbacks and corrupt
	// artifacts.
	Metrics ArtifactMetrics
}

func (s *ArtifactStore) fs() fault.FS {
	if s.FS != nil {
		return s.FS
	}
	return fault.OS
}

func (s *ArtifactStore) keep() int {
	if s.Keep < 1 {
		return 3
	}
	return s.Keep
}

// genPath names generation g of an artifact: the artifact path itself for
// g=0, path.g1, path.g2, ... for backups.
func genPath(path string, g int) string {
	if g == 0 {
		return path
	}
	return fmt.Sprintf("%s.g%d", path, g)
}

// LoadInfo describes where a Load found its data.
type LoadInfo struct {
	// Path is the file actually loaded; empty when no generation existed
	// and the set started fresh.
	Path string
	// Generation is the generation loaded (0 = current, 1 = first
	// backup, ...); -1 when starting fresh.
	Generation int
	// Corrupt lists generation files that existed but failed validation,
	// newest first.
	Corrupt []string
}

// EncodeEnvelope frames an arbitrary JSON payload in the artifact
// layer's version-2 checksummed envelope: the exact format checkpoint
// state files use at rest, reused by the trial fabric to CRC-protect
// results in flight. The payload is compacted first so the bytes the
// checksum covers are canonical.
func EncodeEnvelope(payload []byte) ([]byte, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload); err != nil {
		return nil, fmt.Errorf("sim: envelope payload is not valid JSON: %w", err)
	}
	env := artifactEnvelope{Version: artifactVersion, CRC: crcHex(compact.Bytes()), Payload: compact.Bytes()}
	data, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("sim: marshaling artifact envelope: %w", err)
	}
	return data, nil
}

// DecodeEnvelope verifies a version-2 envelope and returns its payload
// bytes (compacted, exactly what the checksum covered). Truncation, bit
// flips, version skew and malformed frames all surface as errors
// wrapping fault.ErrCorruptArtifact — never as a wrong payload.
func DecodeEnvelope(data []byte) ([]byte, error) {
	var env artifactEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("sim: envelope frame: %v: %w", err, fault.ErrCorruptArtifact)
	}
	if env.Version != artifactVersion {
		return nil, fmt.Errorf("sim: envelope version %d, want %d: %w", env.Version, artifactVersion, fault.ErrCorruptArtifact)
	}
	// Re-indented files still validate: the checksum is defined over the
	// compact form.
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Payload); err != nil {
		return nil, fmt.Errorf("sim: envelope payload: %v: %w", err, fault.ErrCorruptArtifact)
	}
	if got := crcHex(compact.Bytes()); got != env.CRC {
		return nil, fmt.Errorf("sim: envelope checksum mismatch: frame says %s, payload hashes to %s: %w",
			env.CRC, got, fault.ErrCorruptArtifact)
	}
	return compact.Bytes(), nil
}

// encode frames the set in a checksummed envelope.
func (s *ArtifactStore) encode(cs CheckpointSet) ([]byte, error) {
	for _, cp := range cs {
		cp.sortRecords()
	}
	payload, err := json.Marshal(cs)
	if err != nil {
		return nil, fmt.Errorf("sim: marshaling checkpoint set: %w", err)
	}
	return EncodeEnvelope(payload)
}

// decode parses one artifact file: version-2 checksummed envelopes and
// legacy version-1 bare JSON. Every validation failure wraps
// fault.ErrCorruptArtifact.
func decodeArtifact(path string, data []byte) (CheckpointSet, error) {
	var env artifactEnvelope
	envErr := json.Unmarshal(data, &env)
	if envErr == nil && env.Version != 0 {
		payload, err := DecodeEnvelope(data)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", path, err)
		}
		var cs CheckpointSet
		if err := json.Unmarshal(payload, &cs); err != nil {
			return nil, fmt.Errorf("sim: %s: artifact payload: %v: %w", path, err, fault.ErrCorruptArtifact)
		}
		if cs == nil {
			cs = CheckpointSet{}
		}
		return cs, nil
	}
	// Legacy version 1: a bare CheckpointSet document, no checksum.
	var cs CheckpointSet
	if err := json.Unmarshal(data, &cs); err != nil {
		return nil, fmt.Errorf("sim: %s: %v: %w", path, err, fault.ErrCorruptArtifact)
	}
	if cs == nil {
		cs = CheckpointSet{}
	}
	return cs, nil
}

// retryPolicy is s.Retry with the metrics hook chained onto OnRetry.
// Load and Save run it under context.Background: an interrupted run
// still saves each chunk it drains after its own context is cancelled,
// so the store's retries must not stop with that context.
func (s *ArtifactStore) retryPolicy() fault.RetryPolicy {
	retry := s.Retry
	prev := retry.OnRetry
	retry.OnRetry = func(attempt int, err error) {
		if s.Metrics != nil {
			s.Metrics.ArtifactRetried()
		}
		if prev != nil {
			prev(attempt, err)
		}
	}
	return retry
}

// Load reads the newest valid generation of the artifact at path. Corrupt
// or unreadable generations are skipped (and reported in LoadInfo and via
// metrics); if no generation exists at all, it returns an empty set so a
// first run starts fresh. When every existing generation is corrupt, the
// error wraps fault.ErrCorruptArtifact. Transient read faults are retried
// under s.Retry before a generation is given up on.
func (s *ArtifactStore) Load(path string) (CheckpointSet, LoadInfo, error) {
	fs := s.fs()
	retry := s.retryPolicy()
	// A missing generation is definitive, not transient: surface it
	// without burning the retry budget.
	retry.Retryable = func(err error) bool { return !errors.Is(err, os.ErrNotExist) }
	info := LoadInfo{Generation: -1}
	found := 0
	var lastErr error
	for g := 0; g < maxGenerations; g++ {
		p := genPath(path, g)
		var data []byte
		err := retry.DoCtx(context.Background(), func() error {
			var rerr error
			data, rerr = fs.ReadFile(p)
			return rerr
		})
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		found++
		if err == nil {
			var cs CheckpointSet
			cs, err = decodeArtifact(p, data)
			if err == nil {
				if g > 0 && s.Metrics != nil {
					s.Metrics.ArtifactFallback(g)
				}
				info.Path, info.Generation = p, g
				return cs, info, nil
			}
		} else {
			err = fmt.Errorf("sim: reading checkpoint file %s: %w", p, err)
		}
		if s.Metrics != nil {
			s.Metrics.ArtifactCorrupt()
		}
		info.Corrupt = append(info.Corrupt, p)
		lastErr = err
	}
	if found == 0 {
		return CheckpointSet{}, info, nil
	}
	return nil, info, fmt.Errorf("sim: no valid checkpoint generation at %s (%d candidates rejected, last: %w)",
		path, found, lastErr)
}

// Save writes the set as the current generation of the artifact at path,
// rotating existing generations up (path -> path.g1 -> path.g2, oldest
// dropped). The write is atomic and durable — temp file, write, fsync,
// rotate, rename, directory fsync — and transient faults anywhere in that
// sequence are retried under s.Retry. Rotation renames are individually
// best-effort (a missing generation is skipped), so a fault mid-rotation
// leaves at worst a gap that Load's generation scan tolerates.
func (s *ArtifactStore) Save(path string, cs CheckpointSet) error {
	data, err := s.encode(cs)
	if err != nil {
		return err
	}
	fs := s.fs()
	dir := filepath.Dir(path)
	base := filepath.Base(path)

	err = s.retryPolicy().DoCtx(context.Background(), func() error {
		tmp, err := fs.CreateTemp(dir, base+".tmp*")
		if err != nil {
			return err
		}
		if _, err := tmp.Write(data); err != nil {
			tmp.Close()
			fs.Remove(tmp.Name())
			return err
		}
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			fs.Remove(tmp.Name())
			return err
		}
		if err := tmp.Close(); err != nil {
			fs.Remove(tmp.Name())
			return err
		}
		// Rotate backups oldest-first so each generation moves up one
		// slot before the slot below overwrites it.
		for g := s.keep() - 2; g >= 1; g-- {
			if err := fs.Rename(genPath(path, g), genPath(path, g+1)); err != nil && !errors.Is(err, os.ErrNotExist) {
				fs.Remove(tmp.Name())
				return err
			}
		}
		if s.keep() > 1 {
			if err := fs.Rename(path, genPath(path, 1)); err != nil && !errors.Is(err, os.ErrNotExist) {
				fs.Remove(tmp.Name())
				return err
			}
		}
		if err := fs.Rename(tmp.Name(), path); err != nil {
			fs.Remove(tmp.Name())
			return err
		}
		return fs.SyncDir(dir)
	})
	if err != nil {
		return fmt.Errorf("sim: writing checkpoint file: %w", err)
	}
	return nil
}

// describeCorrupt renders LoadInfo's corrupt list for operator messages.
func (i LoadInfo) describeCorrupt() string {
	return strings.Join(i.Corrupt, ", ")
}
