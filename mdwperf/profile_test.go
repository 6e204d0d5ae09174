package main

import (
	"testing"
	"time"
)

func TestPkgOf(t *testing.T) {
	cases := map[string]string{
		"runtime.mallocgc":                         "runtime",
		"mdworm/internal/engine.(*Link).Send":      "mdworm/internal/engine",
		"mdworm/internal/switches/centralbuf.step": "mdworm/internal/switches/centralbuf",
		"mdworm/internal/engine.(*ring[go.shape.struct { W *mdworm/internal/flit.Worm }]).len": "mdworm/internal/engine",
		"net/http.(*conn).serve":               "net/http",
		"main.spin":                            "main",
		"crypto/internal/fips140/sha256.block": "crypto/internal/fips140/sha256",
	}
	for in, want := range cases {
		if got := pkgOf(in); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", in, got, want)
		}
	}
	if bucketOf("crypto/internal/fips140/sha256") != "stdlib_io" || bucketOf("mdworm/internal/switches") != "other" ||
		bucketOf("netip") != "other" || bucketOf("net/http") != "stdlib_io" {
		t.Error("bucketOf misfiles a package")
	}
}

var spinSink uint64

func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

// TestSelfTimeByPackage profiles a busy loop in this package and checks the
// decoder charges most of the CPU time to it.
func TestSelfTimeByPackage(t *testing.T) {
	prof, err := cpuProfile(func() error { spin(400 * time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	self, err := selfTimeByPackage(prof)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range self {
		total += v
	}
	// A test binary names this package by its import path, the benchmark
	// binary "main".
	mine := self["main"] + self["mdworm/mdwperf"]
	if total == 0 || mine/total < 0.5 {
		t.Fatalf("this package holds %.0f of %.0f profiled ns: %v", mine, total, self)
	}
}
