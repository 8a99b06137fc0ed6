package autopilot

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// Binding is the slice of the binding surface the controller needs: the
// sensor (Watch), the actuator (Reconfigure) and the initial state
// (Snapshot). Both core.SimSystem and cluster.Cluster satisfy it.
type Binding interface {
	Watch(opts core.WatchOptions) (*core.WatchStream, error)
	Reconfigure(to core.Config) (*core.ReconfigReport, error)
	RemoveTasks(ids []string) error
	Snapshot() core.BindingSnapshot
}

// attach wires the controller to a binding: subscribe the sensor stream and
// anchor the policy clock at `now` in the binding's timebase.
func (a *Autopilot) attach(b Binding, now time.Duration) error {
	if a.started {
		return fmt.Errorf("autopilot: already attached")
	}
	stream, err := b.Watch(core.WatchOptions{Buffer: watchBuffer})
	if err != nil {
		return fmt.Errorf("autopilot: watch: %w", err)
	}
	a.bind = b
	a.stream = stream
	a.active = b.Snapshot().Config
	a.regimeSince = now
	a.started = true
	return nil
}

// drain ingests every buffered Watch event without blocking. In the sim the
// hub's emissions are synchronous on the engine thread, so by the time a
// tick callback runs, every event up to the current virtual instant is
// already sitting in the buffer — draining here is exact, not approximate.
func (a *Autopilot) drain() {
	for {
		select {
		case ev, ok := <-a.stream.Events():
			if !ok {
				return
			}
			a.ingest(ev)
		default:
			return
		}
	}
}

// AttachSim drives the controller on a simulation binding in virtual time:
// a self-rescheduling SimSystem.At callback chain drains the watch buffer
// and runs one decision tick every Options.Tick from `from+Tick` until
// `until`. Decisions therefore depend only on the virtual-time event
// sequence — the same scenario always yields the same actuations, and a
// recorded run replays bit-for-bit. Call before SimSystem.Run.
func (a *Autopilot) AttachSim(sim *core.SimSystem, from, until time.Duration) error {
	if err := a.attach(sim, from); err != nil {
		return err
	}
	var step func()
	step = func() {
		a.drain()
		now := sim.Engine().Now()
		a.tick(now)
		if next := now + a.opts.Tick; next <= until {
			sim.At(next, step) //nolint:errcheck // next > now by construction
		} else {
			a.stream.Cancel()
		}
	}
	if err := sim.At(from+a.opts.Tick, step); err != nil {
		a.stream.Cancel()
		return fmt.Errorf("autopilot: schedule first tick: %w", err)
	}
	return nil
}

// Start drives the controller on a live binding in wall-clock time: one
// goroutine owns both ingest and the decision ticker, so the estimator
// single-writer discipline holds on the live path too. Stop tears it down.
func (a *Autopilot) Start(b Binding) error {
	now := time.Duration(time.Now().UnixNano())
	if err := a.attach(b, now); err != nil {
		return err
	}
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	go a.loop()
	return nil
}

// minLiveTick floors the live ticker: a heavily time-compressed scenario
// can scale Options.Tick below what a wall-clock ticker can honor.
const minLiveTick = time.Millisecond

func (a *Autopilot) loop() {
	defer close(a.done)
	defer a.stream.Cancel()
	period := a.opts.Tick
	if period < minLiveTick {
		period = minLiveTick
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case ev, ok := <-a.stream.Events():
			if !ok {
				return
			}
			a.ingest(ev)
		case <-ticker.C:
			a.tick(time.Duration(time.Now().UnixNano()))
		case <-a.stop:
			return
		}
	}
}

// Stop halts the live driver and waits for its goroutine to exit.
// Idempotent; a no-op for sim-attached controllers (their tick chain ends
// at the horizon).
func (a *Autopilot) Stop() {
	if a.stop == nil {
		return
	}
	a.stopOnce.Do(func() { close(a.stop) })
	<-a.done
}
