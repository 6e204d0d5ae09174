package main

import (
	"bytes"
	"testing"

	"mdworm/internal/service"
)

// TestStreamIsPureFunctionOfSeed: the same seed gives the identical request
// stream, fresh configs within a stream are distinct, and two seeds share no
// config hash.
func TestStreamIsPureFunctionOfSeed(t *testing.T) {
	const n = 200
	cdf := zipfCDF(warmKeys, zipfS)
	hashes := func(seed uint64) map[string]bool {
		out := map[string]bool{}
		add := func(stream, key int) {
			cfg, err := requestConfig(seed, stream, key).Resolve()
			if err != nil {
				t.Fatal(err)
			}
			h, _, err := service.Hash(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out[h] = true
		}
		for i := 0; i < n; i++ {
			add(streamFresh, i)
		}
		for k := 0; k < warmKeys; k++ {
			add(streamWarm, k)
		}
		return out
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(requestBody(7, streamFresh, i), requestBody(7, streamFresh, i)) {
			t.Fatalf("request %d differs between two streams of one seed", i)
		}
		f1, k1 := warmRequest(7, i, cdf)
		f2, k2 := warmRequest(7, i, cdf)
		if f1 != f2 || k1 != k2 {
			t.Fatalf("warm request %d differs between two streams of one seed", i)
		}
	}
	a, b := hashes(1), hashes(2)
	if len(a) != n+warmKeys || len(b) != n+warmKeys {
		t.Fatalf("configs of one seed collide: %d and %d distinct of %d", len(a), len(b), n+warmKeys)
	}
	for h := range a {
		if b[h] {
			t.Fatalf("seeds 1 and 2 share config %s", h)
		}
	}
}

// TestWarmWorkingSetExceedsLRU: service-warm's working set, and the keys its
// Zipf draws actually touch, are larger than the daemons' in-memory LRU, so
// part of the traffic is served from the disk cache; about a tenth of its
// requests are fresh misses.
func TestWarmWorkingSetExceedsLRU(t *testing.T) {
	if warmKeys <= cacheEntries {
		t.Fatalf("working set %d does not exceed the LRU's %d entries", warmKeys, cacheEntries)
	}
	cdf := zipfCDF(warmKeys, zipfS)
	const n = 5000
	touched := map[int]bool{}
	fresh := 0
	for i := 0; i < n; i++ {
		isFresh, key := warmRequest(1, i, cdf)
		if isFresh {
			fresh++
			continue
		}
		touched[key] = true
	}
	if len(touched) <= cacheEntries {
		t.Errorf("%d requests touch %d keys, not more than the LRU's %d", n, len(touched), cacheEntries)
	}
	if frac := float64(fresh) / n; frac < 0.08 || frac > 0.12 {
		t.Errorf("fresh share %.3f, want about %.2f", frac, warmFresh)
	}
}
