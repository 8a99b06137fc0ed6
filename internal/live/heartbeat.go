package live

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ccm"
	"repro/internal/eventchan"
)

// heartbeatPeriod is the beacon interval.
const heartbeatPeriod = 25 * time.Millisecond

// HeartbeatBeacon is the liveness beacon component: one instance runs on
// each application node and periodically pushes an EvHeartbeat event, which
// the federation routes to the manager's failure detector. A beacon is an
// ordinary push: it waits behind the frames its connection already carries,
// which TestSubmitStormDrains holds short of the detector's timeout.
type HeartbeatBeacon struct {
	mu   sync.Mutex
	proc int
	node string
	ch   *eventchan.Channel
	seq  atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

var _ ccm.Component = (*HeartbeatBeacon)(nil)

// NewHeartbeatBeacon returns an unconfigured beacon.
func NewHeartbeatBeacon() *HeartbeatBeacon { return &HeartbeatBeacon{} }

// Configure parses the processor ID.
func (hb *HeartbeatBeacon) Configure(attrs map[string]string) error {
	proc, err := attrInt(attrs, AttrProcessor)
	if err != nil {
		return err
	}
	hb.mu.Lock()
	hb.proc = proc
	hb.mu.Unlock()
	return nil
}

// Activate starts the beacon goroutine.
func (hb *HeartbeatBeacon) Activate(ctx *ccm.Context) error {
	hb.mu.Lock()
	defer hb.mu.Unlock()
	if hb.stop != nil {
		return ErrAlreadyActive
	}
	hb.node = ctx.Node
	hb.ch = ctx.Events
	hb.stop = make(chan struct{})
	hb.wg.Add(1)
	go hb.run(hb.ch, hb.node, hb.proc, hb.stop)
	return nil
}

// run pushes beacons until stopped. Push failures are ignored: a partitioned
// or dying node simply stops being heard, which is exactly the signal the
// detector consumes.
func (hb *HeartbeatBeacon) run(ch *eventchan.Channel, node string, proc int, stop chan struct{}) {
	defer hb.wg.Done()
	ticker := time.NewTicker(heartbeatPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		_ = ch.Push(eventchan.Event{Type: EvHeartbeat, Payload: AppendHeartbeat(nil, &Heartbeat{
			Node:      node,
			Proc:      proc,
			Seq:       hb.seq.Add(1),
			SentNanos: nowNanos(),
		})})
	}
}

// Passivate stops the beacon and waits for the goroutine to exit.
func (hb *HeartbeatBeacon) Passivate() error {
	hb.mu.Lock()
	stop := hb.stop
	hb.stop = nil
	hb.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	hb.wg.Wait()
	return nil
}

// Beats returns the number of beacons sent.
func (hb *HeartbeatBeacon) Beats() int64 { return hb.seq.Load() }
