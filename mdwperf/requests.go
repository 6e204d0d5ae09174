package main

import (
	"encoding/json"
	"math"

	"mdworm/internal/service"
)

// The benchmark owns its request stream: every /v1/run body is a pure
// function of (workload seed, stream, index), so a run is reproducible from
// its seed and two runs with different seeds share no config — and no cache
// entry. (mdwbench -load numbers its requests from a counter that restarts at
// 1 whatever -seed says, so a second soak against the same daemon is served
// from cache; it is not used here.)

// Request streams. Indices of different streams never produce the same
// config: the stream tag is mixed into each config's simulation seed.
const (
	streamFresh = 1 // distinct configs, one per index: every request misses
	streamWarm  = 2 // the service-warm working set, indexed by key
)

// Service workload shape.
const (
	// cacheEntries is the daemons' in-memory LRU bound; warmKeys, the
	// service-warm working set, exceeds it so that Zipf-tail keys are served
	// from the disk cache.
	cacheEntries = 128
	warmKeys     = 320
	// zipfS is the Zipf exponent over the working set, and warmFresh the
	// share of service-warm requests that are fresh configs (misses).
	zipfS     = 1.1
	warmFresh = 0.1
)

// splitmix64 is the mixing step of the splitmix64 generator: a bijection on
// uint64 with good avalanche, used to derive independent per-index values.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draws is a deterministic sequence of uniform values for one request.
type draws struct{ state uint64 }

func newDraws(seed uint64, stream, idx int) *draws {
	return &draws{state: splitmix64(splitmix64(seed) ^ uint64(stream)<<56 ^ uint64(idx))}
}

func (d *draws) next() uint64 {
	d.state = splitmix64(d.state)
	return d.state
}

// unit returns a uniform value in [0, 1).
func (d *draws) unit() float64 { return float64(d.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (d *draws) intn(n int) int { return int(d.next() % uint64(n)) }

// requestConfig returns config idx of a stream: a small simulation from a
// mix of 2-stage (3 in 4) and 3-stage BMINs over both switch architectures. A request
// costs milliseconds, so the service workloads measure the daemon's request
// path, not one long run.
func requestConfig(seed uint64, stream, idx int) service.ConfigRequest {
	d := newDraws(seed, stream, idx)
	// The mix is stratified by index — every 8 consecutive configs hold two
	// 3-stage ones (one per architecture) and three 2-stage ones of each
	// architecture — so that the cost of a run's requests does not swing
	// with the seed; the seed draws the rest.
	stages := 2
	if idx%4 == 0 {
		stages = 3
	}
	arch := []string{"cb", "ib"}[(idx+idx/4)%2]
	nodes := 1 << (2 * stages) // 4-ary trees of 8-port switches
	degree := 2 + d.intn(nodes/4-1)
	// A 64-node cycle costs about four 16-node ones; shorter windows keep
	// the larger requests in the tens of milliseconds.
	warmup, measure := int64(200), int64(800)
	if stages == 3 {
		warmup, measure = 100, 200
	}
	drain := int64(50_000)
	rate := 0.0005 + 0.001*d.unit()
	simSeed := d.next() | 1
	return service.ConfigRequest{
		Stages:        &stages,
		Arch:          &arch,
		Degree:        &degree,
		OpRate:        &rate,
		WarmupCycles:  &warmup,
		MeasureCycles: &measure,
		DrainCycles:   &drain,
		Seed:          &simSeed,
	}
}

// requestBody is the JSON body of POST /v1/run for one request.
func requestBody(seed uint64, stream, idx int) []byte {
	b, err := json.Marshal(service.RunRequest{Config: requestConfig(seed, stream, idx)})
	if err != nil {
		panic(err) // a fixed struct of scalars always marshals
	}
	return b
}

// zipfCDF is the cumulative distribution of a Zipf(s) law over n keys.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// warmRequest picks service-warm request idx: a fresh config with
// probability warmFresh, otherwise a working-set key drawn by Zipf over cdf.
func warmRequest(seed uint64, idx int, cdf []float64) (fresh bool, key int) {
	d := newDraws(seed, 0, idx)
	if d.unit() < warmFresh {
		return true, 0
	}
	u := d.unit()
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return false, lo
}
