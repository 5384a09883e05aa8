package des

import (
	"math/rand"
	"testing"
)

// nop is the benchmark owner's dispatch: it does nothing, so the
// benchmarks time the kernel alone.
func nop(Kind, int32) {}

// BenchmarkScheduleFire measures the cost of one schedule + fire cycle,
// the inner loop of every simulation in this repository.
func BenchmarkScheduleFire(b *testing.B) {
	sim := New(nop)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Schedule(1, 0, 0)
		sim.Step()
	}
}

// BenchmarkDeepQueue measures heap operations against a queue holding
// many pending events, the high-load regime of the e-commerce model.
func BenchmarkDeepQueue(b *testing.B) {
	sim := New(nop)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		sim.Schedule(1e6+rng.Float64(), 0, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(rng.Float64()*1e5, 0, 0)
		sim.Step()
	}
}

// BenchmarkReschedule measures the cost of moving a pending event, the
// operation a GC stall performs on every running thread.
func BenchmarkReschedule(b *testing.B) {
	sim := New(nop)
	events := make([]Handle, 64)
	for i := range events {
		events[i] = sim.Schedule(1e9+float64(i), 0, int32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := events[i%len(events)]
		sim.Reschedule(h, sim.Time(h)+60)
	}
}

// BenchmarkCancel measures removing a pending event.
func BenchmarkCancel(b *testing.B) {
	sim := New(nop)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Cancel(sim.Schedule(1e6, 0, 0))
	}
}
