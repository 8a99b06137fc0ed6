package main

import (
	"time"

	"repro/internal/des"
)

const (
	desEvents  = 5000000
	desPending = 1024 // timers in the heap at any instant
)

// desChurn is the probe's event handler: every event it receives schedules
// the next, until the budget is spent, so the heap stays at desPending timers
// while desEvents are scheduled and fired.
type desChurn struct {
	eng   *des.Engine
	left  int64
	fired int64
}

func (c *desChurn) HandleEvent(ev des.Event) {
	c.fired++
	if c.left > 0 {
		c.left--
		// The stride varies with the event so that timers interleave in
		// the heap instead of queueing in arrival order.
		c.eng.AfterEvent(time.Duration(1+ev.N%97)*time.Microsecond, c, des.Event{N: ev.N + 7})
	}
}

// probeDES measures the discrete-event engine alone: schedule-and-fire churn
// through AtEvent/AfterEvent and Run with typed events, no simulation on top.
func probeDES(div int) (metrics, error) {
	eng := des.NewEngine()
	c := &desChurn{eng: eng, left: int64(desEvents/div - desPending)}
	for i := 0; i < desPending; i++ {
		eng.AtEvent(time.Duration(i)*time.Microsecond, c, des.Event{N: int64(i)})
	}
	t0 := time.Now()
	eng.Run()
	elapsed := time.Since(t0)
	return metrics{"des.events_s": float64(c.fired) / elapsed.Seconds()}, nil
}
