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

// BenchmarkStationMix times the event mix of the e-commerce model at
// λ = 1.6: one self-rescheduling arrival plus 16 pending service
// completions that each reschedule themselves on firing, at rates that
// make half the events arrivals. The heap case declares no lane; the
// lane case declares the arrival kind, as ecommerce.Model does. Delays
// come from a precomputed exponential table, so the numbers time the
// kernel and not the RNG.
func BenchmarkStationMix(b *testing.B) {
	const (
		arrival    Kind = 0
		completion Kind = 1
		lambda          = 1.6
		mu              = lambda / 16
	)
	rng := rand.New(rand.NewSource(1))
	var exp [4096]float64
	for i := range exp {
		exp[i] = rng.ExpFloat64()
	}
	for _, bc := range []struct {
		name  string
		laned bool
	}{{"heap", false}, {"lane", true}} {
		b.Run(bc.name, func(b *testing.B) {
			var sim *Simulator
			n := 0
			draw := func(rate float64) float64 {
				n++
				return exp[n%len(exp)] / rate
			}
			dispatch := func(kind Kind, arg int32) {
				if kind == arrival {
					sim.Schedule(draw(lambda), arrival, 0)
				} else {
					sim.Schedule(draw(mu), completion, arg)
				}
			}
			if bc.laned {
				sim = NewLaned(dispatch, arrival)
			} else {
				sim = New(dispatch)
			}
			sim.Schedule(draw(lambda), arrival, 0)
			for j := int32(0); j < 16; j++ {
				sim.Schedule(draw(mu), completion, j)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}
