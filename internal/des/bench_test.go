package des

import (
	"testing"
	"time"
)

// The engine microbenchmarks compare the pooled 4-ary engine against the
// retained reference implementation on the simulation's dominant shapes: a
// deep timer churn (every fired event schedules a successor, as arrival
// chains do) and a preemptive processor workload. The ratio between the
// pooled and reference variants is the substrate speedup independent of the
// middleware layers above it.

const benchChurnDepth = 4096

func BenchmarkEngineChurn(b *testing.B) {
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := NewEngine()
			remaining := benchChurnDepth
			var tick func()
			tick = func() {
				if remaining--; remaining > 0 {
					e.At(e.Now()+time.Microsecond, tick)
				}
			}
			e.At(e.Now()+time.Microsecond, tick)
			e.Run()
			if e.Fired() != benchChurnDepth {
				b.Fatalf("fired %d, want %d", e.Fired(), benchChurnDepth)
			}
		}
		b.ReportMetric(float64(b.N)*benchChurnDepth/b.Elapsed().Seconds(), "events/sec")
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := newRefEngine()
			remaining := benchChurnDepth
			var tick func()
			tick = func() {
				if remaining--; remaining > 0 {
					e.After(time.Microsecond, tick)
				}
			}
			e.After(time.Microsecond, tick)
			e.Run()
			if e.Fired() != benchChurnDepth {
				b.Fatalf("fired %d, want %d", e.Fired(), benchChurnDepth)
			}
		}
		b.ReportMetric(float64(b.N)*benchChurnDepth/b.Elapsed().Seconds(), "events/sec")
	})
}

// benchEventSink counts typed events, for the allocation-free dispatch path.
type benchEventSink struct {
	e         *Engine
	remaining int
}

func (s *benchEventSink) HandleEvent(ev Event) {
	if s.remaining--; s.remaining > 0 {
		s.e.AfterEvent(time.Microsecond, s, ev)
	}
}

func BenchmarkEngineTypedChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		sink := &benchEventSink{e: e, remaining: benchChurnDepth}
		e.AfterEvent(time.Microsecond, sink, Event{Kind: 1})
		e.Run()
		if e.Fired() != benchChurnDepth {
			b.Fatalf("fired %d, want %d", e.Fired(), benchChurnDepth)
		}
	}
	b.ReportMetric(float64(b.N)*benchChurnDepth/b.Elapsed().Seconds(), "events/sec")
}

const benchProcJobs = 2048

func BenchmarkProcessorLoad(b *testing.B) {
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := NewEngine()
			p := NewProcessor(e, 0)
			done := 0
			sink := procSink{done: &done}
			for j := 0; j < benchProcJobs; j++ {
				at := time.Duration(j%257) * 500 * time.Microsecond
				prio := j % 5
				e.At(at, func() {
					p.SubmitEvent(prio, 700*time.Microsecond, sink, Event{})
				})
			}
			e.Run()
			if done != benchProcJobs {
				b.Fatalf("completed %d, want %d", done, benchProcJobs)
			}
		}
		b.ReportMetric(float64(b.N)*benchProcJobs/b.Elapsed().Seconds(), "jobs/sec")
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := newRefEngine()
			p := newRefProcessor(e, 0)
			done := 0
			for j := 0; j < benchProcJobs; j++ {
				at := time.Duration(j%257) * 500 * time.Microsecond
				prio := j % 5
				e.At(at, func() {
					p.Submit(&refExecRequest{
						Priority:   prio,
						Remaining:  700 * time.Microsecond,
						OnComplete: func() { done++ },
					})
				})
			}
			e.Run()
			if done != benchProcJobs {
				b.Fatalf("completed %d, want %d", done, benchProcJobs)
			}
		}
		b.ReportMetric(float64(b.N)*benchProcJobs/b.Elapsed().Seconds(), "jobs/sec")
	})
}

type procSink struct{ done *int }

func (s procSink) HandleEvent(Event) { *s.done++ }
