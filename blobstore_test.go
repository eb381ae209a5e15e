package lclgrid

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"
)

// builtinStore is a built-in store: the exported BlobStore plus what
// the cache tier calls on it.
type builtinStore interface {
	BlobStore
	tierStore
}

// conformanceStores opens one fresh instance of every built-in store:
// memory, directory, and the HTTP client against a real CacheServer.
// The HTTP row also returns the methods the server saw.
func conformanceStores(t *testing.T) map[string]func(t *testing.T) (builtinStore, func() []string) {
	none := func() []string { return nil }
	return map[string]func(t *testing.T) (builtinStore, func() []string){
		"memory": func(t *testing.T) (builtinStore, func() []string) {
			return NewMemoryBlobStore().(*memoryBlobStore), none
		},
		"dir": func(t *testing.T) (builtinStore, func() []string) {
			s, err := NewDirBlobStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s.(*dirBlobStore), none
		},
		"http": func(t *testing.T) (builtinStore, func() []string) {
			cs := NewCacheServer(nil)
			var mu sync.Mutex
			var methods []string
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				methods = append(methods, r.Method)
				mu.Unlock()
				cs.ServeHTTP(w, r)
			}))
			t.Cleanup(ts.Close)
			seen := func() []string {
				mu.Lock()
				defer mu.Unlock()
				out := methods
				methods = nil
				return out
			}
			return &httpBlobStore{base: ts.URL, client: ts.Client()}, seen
		},
	}
}

// TestBlobStoreConformance holds every store under the cache tier to
// one contract: missing key, put/get, overwrite, delete (present and
// absent), Keys, and an existence probe that never reads the record.
func TestBlobStoreConformance(t *testing.T) {
	const a, b = "00ab-k1-3x2", "00cd-k3-7x5"
	for name, open := range conformanceStores(t) {
		t.Run(name, func(t *testing.T) {
			s, seen := open(t)
			get := func(name string) ([]byte, bool) {
				t.Helper()
				data, ok, err := s.Get(name)
				if err != nil {
					t.Fatalf("Get(%s): %v", name, err)
				}
				return data, ok
			}
			has := func(name string) bool {
				t.Helper()
				ok, err := s.has(name)
				if err != nil {
					t.Fatalf("has(%s): %v", name, err)
				}
				return ok
			}

			if _, ok := get(a); ok {
				t.Fatal("missing key reported present")
			}
			if has(a) {
				t.Fatal("probe found a missing key")
			}
			if err := s.Put(a, []byte("first")); err != nil {
				t.Fatal(err)
			}
			if data, ok := get(a); !ok || string(data) != "first" {
				t.Fatalf("Get after Put = %q, %v", data, ok)
			}
			seen()
			if !has(a) {
				t.Fatal("probe missed a stored key")
			}
			if m := seen(); m != nil && !slices.Equal(m, []string{http.MethodHead}) {
				t.Fatalf("existence probe sent %v, want a single HEAD", m)
			}
			if err := s.Put(a, []byte("second")); err != nil {
				t.Fatal(err)
			}
			if data, _ := get(a); string(data) != "second" {
				t.Fatalf("overwrite: Get = %q", data)
			}
			if err := s.Put(b, []byte("other")); err != nil {
				t.Fatal(err)
			}
			keys, err := s.Keys()
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(keys)
			if !slices.Equal(keys, []string{a, b}) {
				t.Fatalf("Keys = %v, want [%s %s]", keys, a, b)
			}
			if removed, err := s.Delete(a); err != nil || !removed {
				t.Fatalf("Delete present = %v, %v", removed, err)
			}
			if removed, err := s.Delete(a); err != nil || removed {
				t.Fatalf("Delete absent = %v, %v", removed, err)
			}
			if _, ok := get(a); ok {
				t.Fatal("deleted key still readable")
			}
			if has(a) {
				t.Fatal("probe found a deleted key")
			}
		})
	}
}

// noReads is a store whose reads fail the test: the tier's Contains
// must answer from the existence probe alone.
type noReads struct {
	builtinStore
	t *testing.T
}

func (s noReads) getContext(ctx context.Context, name string) ([]byte, bool, error) {
	s.t.Errorf("Contains read record %s", name)
	return s.Get(name)
}

// TestBlobTierContainsNeverReads: over every store, the tier answers
// Contains for a record outside its memory layer without reading it.
func TestBlobTierContainsNeverReads(t *testing.T) {
	key := SynthKey{Fingerprint: "00ab", K: 1, H: 3, W: 2}
	for name, open := range conformanceStores(t) {
		t.Run(name, func(t *testing.T) {
			s, _ := open(t)
			tier := newBlobTier(noReads{s, t}, nil)
			tier.Put(key, CachedSynthesis{Err: ErrUnsatisfiable})
			tier.inner.Reset()
			if !tier.Contains(key) {
				t.Fatal("Contains missed a stored record")
			}
			if tier.inner.Contains(key) {
				t.Fatal("Contains promoted the record into memory")
			}
		})
	}
}

// stalledStore serves a read, then holds the answer until released —
// a store round trip still in flight while something else happens.
type stalledStore struct {
	builtinStore
	entered chan struct{}
	release chan struct{}
}

func (s *stalledStore) getContext(ctx context.Context, name string) ([]byte, bool, error) {
	data, ok, err := s.Get(name)
	s.entered <- struct{}{}
	<-s.release
	return data, ok, err
}

// TestBlobTierEvictDuringLoadDoesNotResurrect: an Evict that lands
// while a Get is still reading the key from the store completes without
// waiting for that read, and the read does not put the key back into
// the memory layer afterwards.
func TestBlobTierEvictDuringLoadDoesNotResurrect(t *testing.T) {
	store := &stalledStore{
		builtinStore: NewMemoryBlobStore().(*memoryBlobStore),
		entered:      make(chan struct{}),
		release:      make(chan struct{}),
	}
	tier := newBlobTier(store, nil)
	key := SynthKey{Fingerprint: "00ab", K: 1, H: 3, W: 2}
	tier.Put(key, CachedSynthesis{Err: ErrUnsatisfiable})
	tier.inner.Reset() // cold memory, warm store

	got := make(chan bool)
	go func() {
		_, ok := tier.Get(key)
		got <- ok
	}()
	<-store.entered

	evicted := make(chan bool)
	go func() { evicted <- tier.Evict(key) }()
	select {
	case removed := <-evicted:
		if !removed {
			t.Fatal("Evict found nothing to remove")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Evict waited on a store read in flight")
	}
	close(store.release)
	<-got

	if tier.inner.Contains(key) {
		t.Fatal("a Get that overlapped Evict put the key back into memory")
	}
	if tier.Contains(key) {
		t.Fatal("evicted key still present")
	}
}

// TestBlobTierPromotesWithoutEvict: the guard above costs nothing when
// no Evict overlaps — a store hit lands in the memory layer.
func TestBlobTierPromotesWithoutEvict(t *testing.T) {
	tier := newBlobTier(NewMemoryBlobStore().(*memoryBlobStore), nil)
	key := SynthKey{Fingerprint: "00ab", K: 1, H: 3, W: 2}
	tier.Put(key, CachedSynthesis{Err: ErrUnsatisfiable})
	tier.inner.Reset()
	if val, ok := tier.Get(key); !ok || !errors.Is(val.Err, ErrUnsatisfiable) {
		t.Fatalf("store hit = %+v, %v", val, ok)
	}
	if !tier.inner.Contains(key) {
		t.Fatal("store hit not promoted into memory")
	}
	if st := tier.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("store hit not folded into Stats: %+v", st)
	}
}
