package core

import "testing"

// BenchmarkNewSimulator measures the cost of building the quick suite's
// 4-ary 3-stage system (64 processors) of either switch organization —
// topology, links, switches, NICs and traffic generator — and releasing
// it again, as a sweep does once per run.
func BenchmarkNewSimulator(b *testing.B) {
	for _, arch := range []SwitchArch{CentralBuffer, InputBuffer} {
		b.Run(arch.String(), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Arch = arch
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 1_000, 4_000, 400_000
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sim.Release()
			}
		})
	}
}
