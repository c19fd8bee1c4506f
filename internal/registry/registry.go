// Package registry implements a named, versioned store of trained
// Entropy/IP models: the model-management layer behind the serving daemon.
//
// Models are persisted on disk in the core.Save JSON format, one directory
// per model name with one file per version, and decoded models are held in
// a bounded in-memory LRU cache so that repeated queries against the same
// model never touch the disk or re-decode JSON. The structure mirrors the
// memory-over-disk layered cache idiom of production serving systems: the
// disk directory is the durable source of truth, the LRU is the hot set.
//
// All methods are safe for concurrent use. Loads of a cold model are
// deduplicated (single-flight) so that a burst of requests for the same
// model decodes it once.
package registry

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"entropyip/internal/core"
)

// DefaultCacheSize is the number of decoded models kept in memory when no
// explicit cache size is configured.
const DefaultCacheSize = 16

// ErrNotFound is returned when the requested model name or version does
// not exist in the registry.
var ErrNotFound = errors.New("registry: model not found")

// ErrInvalidModel is returned (wrapped) when an uploaded document does not
// decode as a model, as opposed to storage failures. HTTP layers use it to
// distinguish a client's bad request from a server-side fault.
var ErrInvalidModel = errors.New("registry: invalid model document")

// nameRE restricts model names to filesystem- and URL-safe identifiers.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ValidName reports whether s is an acceptable model name.
func ValidName(s string) bool { return nameRE.MatchString(s) }

// Info describes one stored model version.
type Info struct {
	// Name is the model's registry name.
	Name string `json:"name"`
	// Version is the 1-based version number; higher is newer.
	Version int `json:"version"`
	// TrainCount is the number of addresses the model was trained on.
	TrainCount int `json:"train_count"`
	// Segments is the number of segments (BN variables) in the model.
	Segments int `json:"segments"`
	// Prefix64Only reports whether the model covers only the top 64 bits.
	Prefix64Only bool `json:"prefix64_only"`
	// SizeBytes is the size of the serialized model on disk.
	SizeBytes int64 `json:"size_bytes"`
	// Created is the modification time of the version file.
	Created time.Time `json:"created"`
}

// Stats is a snapshot of registry cache behaviour.
type Stats struct {
	// Models is the number of distinct model names.
	Models int `json:"models"`
	// Versions is the total number of stored versions across all names.
	Versions int `json:"versions"`
	// CacheEntries is the number of decoded models currently in memory.
	CacheEntries int `json:"cache_entries"`
	// CacheCapacity is the maximum number of decoded models kept.
	CacheCapacity int `json:"cache_capacity"`
	// Hits and Misses count cache lookups since the registry was opened.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts models dropped from the cache to make room.
	Evictions int64 `json:"evictions"`
	// Coalesced counts lookups that joined another goroutine's in-flight
	// disk load instead of starting their own (single-flight hits).
	Coalesced int64 `json:"coalesced"`
}

// Registry is a named, versioned model store: a disk directory of
// core.Save JSON files under an in-memory LRU of decoded models.
type Registry struct {
	dir string

	// imu guards the name → versions index.
	imu   sync.RWMutex
	index map[string][]Info // versions sorted ascending
	// lastVersion remembers the highest version ever assigned to a name in
	// this process, surviving Delete. Without it, Delete+Put would reuse
	// version numbers and an in-flight load of a deleted version could be
	// installed under the new version's cache key.
	lastVersion map[string]int

	// cmu guards the LRU cache, the single-flight table and the counters.
	cmu       sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	loading   map[string]*inflight
	hits      int64
	misses    int64
	evictions int64
	coalesced int64

	// onLoad, when set, observes the wall-clock seconds of every
	// successful disk load (for a latency histogram). Set it with
	// SetLoadObserver before the registry sees concurrent traffic.
	onLoad func(seconds float64)
}

type cacheEntry struct {
	key   string
	model *core.Model
	info  Info
}

type inflight struct {
	done  chan struct{}
	model *core.Model
	info  Info
	err   error
}

// Open opens (creating if needed) a registry rooted at dir. cacheSize
// bounds the number of decoded models kept in memory; <= 0 selects
// DefaultCacheSize. Existing model files are indexed but not decoded.
func Open(dir string, cacheSize int) (*Registry, error) {
	if cacheSize <= 0 {
		cacheSize = DefaultCacheSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	r := &Registry{
		dir:         dir,
		index:       make(map[string][]Info),
		lastVersion: make(map[string]int),
		max:         cacheSize,
		ll:          list.New(),
		items:       make(map[string]*list.Element),
		loading:     make(map[string]*inflight),
	}
	if err := r.scan(); err != nil {
		return nil, err
	}
	return r, nil
}

// scan builds the name → versions index from the directory contents.
func (r *Registry) scan() error {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !ValidName(e.Name()) {
			continue
		}
		name := e.Name()
		files, err := os.ReadDir(filepath.Join(r.dir, name))
		if err != nil {
			return fmt.Errorf("registry: %w", err)
		}
		var infos []Info
		for _, f := range files {
			v, ok := parseVersionFile(f.Name())
			if !ok {
				continue
			}
			info, err := r.probe(name, v)
			if err != nil {
				// A corrupt or foreign file must not take the whole
				// registry down; skip it.
				continue
			}
			infos = append(infos, info)
		}
		sort.Slice(infos, func(i, j int) bool { return infos[i].Version < infos[j].Version })
		if len(infos) > 0 {
			r.index[name] = infos
			r.lastVersion[name] = infos[len(infos)-1].Version
		}
	}
	return nil
}

// versionFile returns the path of one version file.
func (r *Registry) versionFile(name string, version int) string {
	return filepath.Join(r.dir, name, fmt.Sprintf("v%06d.json", version))
}

func parseVersionFile(base string) (int, bool) {
	if len(base) != len("v000000.json") || base[0] != 'v' || filepath.Ext(base) != ".json" {
		return 0, false
	}
	v, err := strconv.Atoi(base[1:7])
	if err != nil || v <= 0 {
		return 0, false
	}
	return v, true
}

// metaProbe decodes only the summary fields of a model file.
type metaProbe struct {
	Version      int               `json:"version"`
	Prefix64Only bool              `json:"prefix64_only"`
	TrainCount   int               `json:"train_count"`
	Segments     []json.RawMessage `json:"segments"`
}

// probe derives Info from a version file without building the model. The
// file is decoded streaming off the descriptor rather than slurped, so
// startup cost stays one parse pass per file with no extra buffer.
func (r *Registry) probe(name string, version int) (Info, error) {
	path := r.versionFile(name, version)
	f, err := os.Open(path)
	if err != nil {
		return Info{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return Info{}, err
	}
	var mp metaProbe
	if err := json.NewDecoder(f).Decode(&mp); err != nil {
		return Info{}, fmt.Errorf("registry: %s: %w", path, err)
	}
	if len(mp.Segments) == 0 {
		return Info{}, fmt.Errorf("registry: %s: no segments", path)
	}
	return Info{
		Name:         name,
		Version:      version,
		TrainCount:   mp.TrainCount,
		Segments:     len(mp.Segments),
		Prefix64Only: mp.Prefix64Only,
		SizeBytes:    st.Size(),
		Created:      st.ModTime(),
	}, nil
}

// Put stores a new version of the named model and returns its Info. The
// model is written atomically (temp file + rename) and becomes the
// latest version. The decoded model is installed in the cache.
func (r *Registry) Put(name string, m *core.Model) (Info, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return Info{}, fmt.Errorf("registry: encoding model: %w", err)
	}
	data = append(data, '\n')
	return r.putBytes(name, m, data)
}

// PutRaw stores serialized model bytes (the core.Save format) as a new
// version of the named model, validating that they decode first.
func (r *Registry) PutRaw(name string, data []byte) (Info, error) {
	m, err := core.Load(bytes.NewReader(data))
	if err != nil {
		return Info{}, fmt.Errorf("%w: %v", ErrInvalidModel, err)
	}
	return r.putBytes(name, m, data)
}

func (r *Registry) putBytes(name string, m *core.Model, data []byte) (Info, error) {
	if !ValidName(name) {
		return Info{}, fmt.Errorf("registry: invalid model name %q", name)
	}
	// Assign the next version and write atomically under the index lock so
	// concurrent Puts of the same name get distinct versions. The model
	// directory is created under the lock too: Delete removes it while
	// holding imu, so creating it earlier races a concurrent Delete into
	// an ENOENT from CreateTemp.
	r.imu.Lock()
	defer r.imu.Unlock()
	nameDir := filepath.Join(r.dir, name)
	if err := os.MkdirAll(nameDir, 0o755); err != nil {
		return Info{}, fmt.Errorf("registry: %w", err)
	}
	version := r.lastVersion[name] + 1
	if infos := r.index[name]; len(infos) > 0 && infos[len(infos)-1].Version >= version {
		version = infos[len(infos)-1].Version + 1
	}
	path := r.versionFile(name, version)
	tmp, err := os.CreateTemp(nameDir, ".put-*")
	if err != nil {
		return Info{}, fmt.Errorf("registry: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return Info{}, fmt.Errorf("registry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return Info{}, fmt.Errorf("registry: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return Info{}, fmt.Errorf("registry: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return Info{}, fmt.Errorf("registry: %w", err)
	}
	info := Info{
		Name:         name,
		Version:      version,
		TrainCount:   m.TrainCount,
		Segments:     len(m.Segments),
		Prefix64Only: m.Opts.Prefix64Only,
		SizeBytes:    st.Size(),
		Created:      st.ModTime(),
	}
	r.index[name] = append(r.index[name], info)
	r.lastVersion[name] = version

	r.cmu.Lock()
	r.install(cacheKey(name, version), m, info)
	r.cmu.Unlock()
	return info, nil
}

// Get returns the latest version of the named model.
func (r *Registry) Get(name string) (*core.Model, Info, error) {
	return r.GetVersion(name, 0)
}

// LoadSource says how GetVersionOutcome satisfied a lookup.
type LoadSource uint8

const (
	// LoadHit: served from the in-memory LRU.
	LoadHit LoadSource = iota
	// LoadMiss: decoded from disk by this caller.
	LoadMiss
	// LoadCoalesced: waited on another caller's in-flight decode.
	LoadCoalesced
)

func (s LoadSource) String() string {
	switch s {
	case LoadHit:
		return "hit"
	case LoadMiss:
		return "miss"
	default:
		return "coalesced"
	}
}

// LoadOutcome describes how one lookup was served — callers (the serving
// plane) turn it into span attributes without the registry knowing about
// tracing (the layering rule: registry depends on obs for nothing).
type LoadOutcome struct {
	Source LoadSource
	// LoadSeconds is the disk decode time; 0 unless Source is LoadMiss.
	LoadSeconds float64
	// Evicted counts models this lookup's install pushed out of the LRU.
	Evicted int
}

// GetVersion returns the given version of the named model; version 0 means
// the latest. The decoded model is shared between callers and must be
// treated as read-only.
func (r *Registry) GetVersion(name string, version int) (*core.Model, Info, error) {
	m, info, _, err := r.GetVersionOutcome(name, version)
	return m, info, err
}

// GetVersionOutcome is GetVersion plus a LoadOutcome describing how the
// lookup was served (cache hit, disk load, or coalesced onto another
// caller's load).
func (r *Registry) GetVersionOutcome(name string, version int) (*core.Model, Info, LoadOutcome, error) {
	info, err := r.resolve(name, version)
	if err != nil {
		return nil, Info{}, LoadOutcome{}, err
	}
	key := cacheKey(info.Name, info.Version)

	r.cmu.Lock()
	if el, ok := r.items[key]; ok {
		r.ll.MoveToFront(el)
		ce := el.Value.(*cacheEntry)
		r.hits++
		r.cmu.Unlock()
		return ce.model, ce.info, LoadOutcome{Source: LoadHit}, nil
	}
	r.misses++
	if fl, ok := r.loading[key]; ok {
		// Another goroutine is already decoding this model: wait for it.
		r.coalesced++
		r.cmu.Unlock()
		<-fl.done
		return fl.model, fl.info, LoadOutcome{Source: LoadCoalesced}, fl.err
	}
	fl := &inflight{done: make(chan struct{})}
	r.loading[key] = fl
	r.cmu.Unlock()

	loadStart := time.Now()
	m, lerr := r.loadFromDisk(info)
	loadSeconds := time.Since(loadStart).Seconds()
	if lerr == nil && r.onLoad != nil {
		r.onLoad(loadSeconds)
	}
	fl.model, fl.info, fl.err = m, info, lerr

	evicted := 0
	r.cmu.Lock()
	delete(r.loading, key)
	if lerr == nil {
		evicted = r.install(key, m, info)
	}
	r.cmu.Unlock()
	close(fl.done)
	return fl.model, fl.info, LoadOutcome{Source: LoadMiss, LoadSeconds: loadSeconds, Evicted: evicted}, fl.err
}

// OpenRaw opens the serialized bytes of a model version for reading (e.g.
// to stream a model download without decoding it). version 0 means latest.
func (r *Registry) OpenRaw(name string, version int) (io.ReadCloser, Info, error) {
	info, err := r.resolve(name, version)
	if err != nil {
		return nil, Info{}, err
	}
	f, err := r.openVersion(info)
	if err != nil {
		return nil, Info{}, err
	}
	return f, info, nil
}

// resolve maps (name, version) to the Info of an existing version.
func (r *Registry) resolve(name string, version int) (Info, error) {
	r.imu.RLock()
	defer r.imu.RUnlock()
	infos := r.index[name]
	if len(infos) == 0 {
		return Info{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if version == 0 {
		return infos[len(infos)-1], nil
	}
	for _, info := range infos {
		if info.Version == version {
			return info, nil
		}
	}
	return Info{}, fmt.Errorf("%w: %q version %d", ErrNotFound, name, version)
}

// openVersion opens a resolved version's file. A Delete that runs
// between resolve and the open removes the file; that surfaces as the
// ErrNotFound a lookup after the Delete would get, not as an I/O error.
func (r *Registry) openVersion(info Info) (*os.File, error) {
	f, err := os.Open(r.versionFile(info.Name, info.Version))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			if _, rerr := r.resolve(info.Name, info.Version); rerr != nil {
				return nil, rerr
			}
		}
		return nil, fmt.Errorf("registry: %w", err)
	}
	return f, nil
}

func (r *Registry) loadFromDisk(info Info) (*core.Model, error) {
	f, err := r.openVersion(info)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := core.Load(f)
	if err != nil {
		return nil, fmt.Errorf("registry: decoding %s v%d: %w", info.Name, info.Version, err)
	}
	return m, nil
}

// install inserts a decoded model into the LRU and returns how many
// entries it evicted; caller holds cmu.
func (r *Registry) install(key string, m *core.Model, info Info) int {
	if el, ok := r.items[key]; ok {
		r.ll.MoveToFront(el)
		el.Value.(*cacheEntry).model = m
		el.Value.(*cacheEntry).info = info
		return 0
	}
	el := r.ll.PushFront(&cacheEntry{key: key, model: m, info: info})
	r.items[key] = el
	evicted := 0
	for r.ll.Len() > r.max {
		oldest := r.ll.Back()
		r.ll.Remove(oldest)
		delete(r.items, oldest.Value.(*cacheEntry).key)
		r.evictions++
		evicted++
	}
	return evicted
}

func cacheKey(name string, version int) string {
	return name + "@" + strconv.Itoa(version)
}

// List returns the latest Info of every model name, sorted by name.
func (r *Registry) List() []Info {
	r.imu.RLock()
	defer r.imu.RUnlock()
	out := make([]Info, 0, len(r.index))
	for _, infos := range r.index {
		out = append(out, infos[len(infos)-1])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Versions returns every stored version of the named model, oldest first.
func (r *Registry) Versions(name string) ([]Info, error) {
	r.imu.RLock()
	defer r.imu.RUnlock()
	infos := r.index[name]
	if len(infos) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return append([]Info(nil), infos...), nil
}

// Delete removes the named model — all versions — from disk and memory.
func (r *Registry) Delete(name string) error {
	r.imu.Lock()
	defer r.imu.Unlock()
	infos := r.index[name]
	if len(infos) == 0 {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err := os.RemoveAll(filepath.Join(r.dir, name)); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	r.lastVersion[name] = infos[len(infos)-1].Version
	delete(r.index, name)
	r.cmu.Lock()
	for _, info := range infos {
		key := cacheKey(name, info.Version)
		if el, ok := r.items[key]; ok {
			r.ll.Remove(el)
			delete(r.items, key)
		}
	}
	r.cmu.Unlock()
	return nil
}

// Stats returns a snapshot of registry and cache state.
func (r *Registry) Stats() Stats {
	r.imu.RLock()
	models := len(r.index)
	versions := 0
	for _, infos := range r.index {
		versions += len(infos)
	}
	r.imu.RUnlock()
	r.cmu.Lock()
	defer r.cmu.Unlock()
	return Stats{
		Models:        models,
		Versions:      versions,
		CacheEntries:  r.ll.Len(),
		CacheCapacity: r.max,
		Hits:          r.hits,
		Misses:        r.misses,
		Evictions:     r.evictions,
		Coalesced:     r.coalesced,
	}
}

// SetLoadObserver installs a callback observing the duration (seconds) of
// every successful disk load. Call it once, before the registry serves
// concurrent traffic: the field is read without synchronization on the
// load path.
func (r *Registry) SetLoadObserver(fn func(seconds float64)) {
	r.onLoad = fn
}
