package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Cache is the driver's per-package result store, so a
// no-change `dbvet ./...` run replays results instead of re-analyzing
// the module. An entry's key covers everything that can change a
// package's findings:
//
//   - the tool binary (a rebuilt dbvet invalidates everything),
//   - the package's source bytes (directives live in comments, which
//     compiler export data cannot see),
//   - the export-data output hashes of every dependency (the go build
//     cache names export files by output hash, so the path strings
//     change exactly when a dependency's compiled form does),
//   - the facts the dependencies exported this run (a dependency's
//     body-only change can alter its lock summaries without altering
//     its export data),
//   - any extra driver salt (the hot-path perf budget file).
//
// Entries are JSON files under dir, one per package, named by key.
type Cache struct {
	dir  string
	salt string
}

// CacheEntry is one package's stored outcome.
type CacheEntry struct {
	Diags      []ResultDiagnostic
	Suppressed int
	Facts      PackageFacts
}

// OpenCache prepares a cache rooted at dir (created on first Put).
// salt is hashed into every key.
func OpenCache(dir, salt string) *Cache {
	return &Cache{dir: dir, salt: salt}
}

// Key computes pkg's cache key given the facts of its dependencies.
func (c *Cache) Key(pkg *Package, depFacts []PackageFacts) (string, error) {
	h := sha256.New()
	io.WriteString(h, c.salt)
	io.WriteString(h, "\x00"+pkg.ListedPath+"\x00")
	for _, name := range pkg.SrcFiles {
		f, err := os.Open(name)
		if err != nil {
			return "", err
		}
		if _, err := io.Copy(h, f); err != nil {
			f.Close()
			return "", err
		}
		f.Close()
		io.WriteString(h, "\x00")
	}
	deps := make([]string, 0, len(pkg.DepExports))
	for dep, file := range pkg.DepExports {
		deps = append(deps, dep+"="+file)
	}
	sort.Strings(deps)
	for _, d := range deps {
		io.WriteString(h, d+"\x00")
	}
	for _, facts := range depFacts {
		raw, err := json.Marshal(facts)
		if err != nil {
			return "", err
		}
		h.Write(raw)
		io.WriteString(h, "\x00")
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// Get returns the stored entry for key, if any.
func (c *Cache) Get(key string) (*CacheEntry, bool) {
	if c == nil || c.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(c.dir, key+".json"))
	if err != nil {
		return nil, false
	}
	e := new(CacheEntry)
	if json.Unmarshal(data, e) != nil {
		return nil, false
	}
	return e, true
}

// Put stores entry under key (best-effort: a read-only disk degrades to
// re-analysis, never to failure).
func (c *Cache) Put(key string, e *CacheEntry) {
	if c == nil || c.dir == "" {
		return
	}
	if os.MkdirAll(c.dir, 0o777) != nil {
		return
	}
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	tmp := filepath.Join(c.dir, key+".tmp")
	if os.WriteFile(tmp, data, 0o666) != nil {
		return
	}
	_ = os.Rename(tmp, filepath.Join(c.dir, key+".json"))
}
