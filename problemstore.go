package lclgrid

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// StoredProblem is one user-defined problem as the ProblemStore keeps
// it: the fingerprint-derived registry key, the full fingerprint, and
// the canonical definition form (see ProblemDef.Canonical).
type StoredProblem struct {
	Key         string      `json:"key"`
	Fingerprint string      `json:"fingerprint"`
	Def         *ProblemDef `json:"def"`
}

// ProblemStore persists user problem definitions — the registration
// state behind POST /v1/problems. Implementations must be safe for
// concurrent use.
//
// Built-in implementations: NewMemoryProblemStore (process-local, the
// server default) and NewDirProblemStore (atomic dir-backed, mirroring
// the disk synthesis cache's layout; `serve -problems-dir`), which
// makes registered problems survive restarts and feed warm-on-boot.
type ProblemStore interface {
	// Get returns the stored problem for a registry key.
	Get(key string) (StoredProblem, bool)
	// ByFingerprint returns the stored problem with the given canonical
	// fingerprint — the idempotency probe of POST /v1/problems.
	ByFingerprint(fp string) (StoredProblem, bool)
	// Put stores a problem, replacing any entry with the same key.
	Put(sp StoredProblem) error
	// List returns every stored problem, ordered by key.
	List() []StoredProblem
}

// --- In-memory store --------------------------------------------------------

type memoryProblemStore struct {
	mu    sync.RWMutex
	byKey map[string]StoredProblem
	byFP  map[string]string // fingerprint → key
}

// NewMemoryProblemStore returns a process-local ProblemStore — the
// default behind POST /v1/problems when no -problems-dir is given.
func NewMemoryProblemStore() ProblemStore {
	return &memoryProblemStore{
		byKey: make(map[string]StoredProblem),
		byFP:  make(map[string]string),
	}
}

func (s *memoryProblemStore) Get(key string) (StoredProblem, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sp, ok := s.byKey[key]
	return sp, ok
}

func (s *memoryProblemStore) ByFingerprint(fp string) (StoredProblem, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	key, ok := s.byFP[fp]
	if !ok {
		return StoredProblem{}, false
	}
	sp, ok := s.byKey[key]
	return sp, ok
}

func (s *memoryProblemStore) Put(sp StoredProblem) error {
	if sp.Key == "" || sp.Fingerprint == "" || sp.Def == nil {
		return fmt.Errorf("lclgrid: problem store: record needs a key, a fingerprint and a definition")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byKey[sp.Key] = sp
	s.byFP[sp.Fingerprint] = sp.Key
	return nil
}

func (s *memoryProblemStore) List() []StoredProblem {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]StoredProblem, 0, len(s.byKey))
	for _, sp := range s.byKey {
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// --- Dir-backed store -------------------------------------------------------

// dirProblemStore layers persistence under a memory store the same way
// the disk cache layers a directory under a SynthCache: one JSON file
// per problem, atomic writes (writeFileAtomic), fingerprint-derived file
// names (so concurrent servers can safely share a directory), and
// corrupt files removed on load so the next Put heals them. The memory
// layer is loaded once at open; reads never touch the disk afterwards.
type dirProblemStore struct {
	dir   string
	inner *memoryProblemStore
}

// problemFileSuffix names the store's files: <fingerprint>.problem.json,
// alongside the disk cache's <fingerprint>-k..x...synth.json layout so
// one data directory can carry both.
const problemFileSuffix = ".problem.json"

// NewDirProblemStore returns a ProblemStore persisting definitions as
// JSON files under dir (created if needed), pre-loaded with every valid
// record already there. Corrupt or mismatched files are removed during
// the load — the store self-heals the way the disk cache does.
func NewDirProblemStore(dir string) (ProblemStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("lclgrid: problem store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lclgrid: problem store: %w", err)
	}
	s := &dirProblemStore{
		dir:   dir,
		inner: NewMemoryProblemStore().(*memoryProblemStore),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lclgrid: problem store: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, problemFileSuffix) {
			continue
		}
		path := filepath.Join(dir, name)
		sp, err := readProblemFile(path, strings.TrimSuffix(name, problemFileSuffix))
		if err != nil {
			// Corrupt, truncated or misnamed: drop it so a re-Put heals it.
			os.Remove(path)
			continue
		}
		_ = s.inner.Put(sp)
	}
	return s, nil
}

// readProblemFile loads and cross-checks one store file: the record
// must decode, validate as a definition, and carry the fingerprint (and
// fingerprint-derived key) its file name claims — a renamed or edited
// file is corruption, not configuration.
func readProblemFile(path, stem string) (StoredProblem, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return StoredProblem{}, err
	}
	var sp StoredProblem
	if err := json.Unmarshal(data, &sp); err != nil {
		return StoredProblem{}, err
	}
	if sp.Def == nil {
		return StoredProblem{}, fmt.Errorf("lclgrid: problem file carries no definition")
	}
	fp, err := sp.Def.Fingerprint()
	if err != nil {
		return StoredProblem{}, err
	}
	if fp != sp.Fingerprint || fp != stem || sp.Key != userKey(fp) {
		return StoredProblem{}, fmt.Errorf("lclgrid: problem file %s disagrees with its contents", path)
	}
	return sp, nil
}

// problemPath returns the store file for a fingerprint, or "" when the
// fingerprint is not safely encodable as a file name (same hex-only
// validation as the disk cache's cacheKeyName).
func (s *dirProblemStore) problemPath(fp string) string {
	if fp == "" || len(fp) > 128 {
		return ""
	}
	for _, ch := range fp {
		switch {
		case ch >= '0' && ch <= '9', ch >= 'a' && ch <= 'f':
		default:
			return ""
		}
	}
	return filepath.Join(s.dir, fp+problemFileSuffix)
}

func (s *dirProblemStore) Get(key string) (StoredProblem, bool) { return s.inner.Get(key) }

func (s *dirProblemStore) ByFingerprint(fp string) (StoredProblem, bool) {
	return s.inner.ByFingerprint(fp)
}

func (s *dirProblemStore) List() []StoredProblem { return s.inner.List() }

func (s *dirProblemStore) Put(sp StoredProblem) error {
	if err := s.inner.Put(sp); err != nil {
		return err
	}
	path := s.problemPath(sp.Fingerprint)
	if path == "" {
		return fmt.Errorf("lclgrid: problem store: fingerprint %q is not encodable as a file name", sp.Fingerprint)
	}
	data, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}
