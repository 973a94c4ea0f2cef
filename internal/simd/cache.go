package simd

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ErrOracle is the regression alarm: a freshly computed result disagreed
// with the cached bytes for the same content hash. The simulator is
// deterministic, so identical cell identity must mean identical bytes —
// any divergence is a simulator behaviour change, not noise.
var ErrOracle = errors.New("simd: cache oracle mismatch")

// Cache is the content-addressed result store: cell hash → canonical
// result bytes. It is safe for concurrent use. With a directory it also
// persists entries (one file per hash, written via temp+rename so a kill
// mid-write never leaves a torn entry); the in-memory map fronts the
// directory either way. A file that does not decode as a Result naming its
// own hash is disk damage, not a simulator result: it is removed and the
// entry counts as absent, so the cell re-simulates and rewrites it rather
// than failing the oracle against garbage on every later sweep.
type Cache struct {
	dir string
	mu  sync.Mutex
	m   map[string][]byte

	hits, misses, oracleOK int64
}

// NewCache returns a cache, disk-backed under dir when dir is non-empty.
func NewCache(dir string) (*Cache, error) {
	c := &Cache{dir: dir, m: make(map[string][]byte)}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("simd: cache dir: %w", err)
		}
	}
	return c, nil
}

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash+".json")
}

// Get returns the cached bytes for hash, consulting the disk tier on a
// memory miss.
func (c *Cache) Get(hash string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.load(hash)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return b, ok
}

// load returns the entry for hash from memory or, on a memory miss, from a
// sound file on disk, dropping a damaged one. The caller holds c.mu.
func (c *Cache) load(hash string) ([]byte, bool) {
	if b, ok := c.m[hash]; ok {
		return b, true
	}
	if c.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.path(hash))
	if err != nil {
		return nil, false
	}
	if res, err := ParseResult(b); err != nil || res.Hash != hash {
		os.Remove(c.path(hash))
		return nil, false
	}
	c.m[hash] = b
	return b, true
}

// Put stores result bytes under hash. If a sound entry already exists, the
// new bytes must match it exactly — the oracle check — and ErrOracle
// reports the divergence with both encodings.
func (c *Cache) Put(hash string, b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.load(hash); ok {
		if !bytes.Equal(prev, b) {
			return fmt.Errorf("%w: hash %s:\n  cached: %s\n  fresh:  %s", ErrOracle, hash, prev, b)
		}
		c.oracleOK++
		return nil
	}
	c.m[hash] = append([]byte(nil), b...)
	if c.dir != "" {
		tmp, err := os.CreateTemp(c.dir, "put-*")
		if err != nil {
			return fmt.Errorf("simd: cache put: %w", err)
		}
		if _, err := tmp.Write(b); err == nil {
			err = tmp.Close()
			if err == nil {
				err = os.Rename(tmp.Name(), c.path(hash))
			}
		} else {
			tmp.Close()
		}
		if err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("simd: cache put: %w", err)
		}
	}
	return nil
}

// Stats returns (hits, misses, oracle-confirmed recomputations).
func (c *Cache) Stats() (hits, misses, oracleOK int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.oracleOK
}
