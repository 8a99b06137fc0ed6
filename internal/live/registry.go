package live

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/ccm"
	"repro/internal/sched"
)

// Implementation names in the component repository, referenced by
// deployment plans.
const (
	ImplTaskEffector        = "TaskEffector"
	ImplAdmissionController = "AdmissionController"
	ImplLoadBalancer        = "LoadBalancer"
	ImplSubtask             = "Subtask"
	ImplIdleResetter        = "IdleResetter"
	ImplHeartbeatBeacon     = "HeartbeatBeacon"
	ImplStandbyAC           = "StandbyAC"
)

// Register adds the live component implementations to a component
// repository used by node daemons and in-process clusters.
func Register(reg *ccm.Registry) error {
	pairs := []struct {
		name    string
		factory ccm.Factory
	}{
		{ImplTaskEffector, func() ccm.Component { return NewTaskEffector() }},
		{ImplAdmissionController, func() ccm.Component { return NewAdmissionController() }},
		{ImplLoadBalancer, func() ccm.Component { return NewLoadBalancer() }},
		{ImplSubtask, func() ccm.Component { return NewSubtask() }},
		{ImplIdleResetter, func() ccm.Component { return NewIdleResetter() }},
		{ImplHeartbeatBeacon, func() ccm.Component { return NewHeartbeatBeacon() }},
		{ImplStandbyAC, func() ccm.Component { return NewStandbyAC() }},
	}
	for _, p := range pairs {
		if err := reg.Register(p.name, p.factory); err != nil {
			return err
		}
	}
	return nil
}

// Driver generates the arrival process for the tasks homed on one node,
// standing in for the physical system feeding the task effector: periodic
// tasks release on their phase/period grid, aperiodic tasks follow Poisson
// arrivals. Arrival timing may be compressed with the same scale factor the
// executor applies to execution times.
type Driver struct {
	te    *TaskEffector
	tasks []*sched.Task
	scale float64
	rng   *rand.Rand
	rngMu sync.Mutex

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewDriver prepares a driver over the tasks whose first stage is homed on
// the effector's processor. timeScale < 1 compresses the schedule.
func NewDriver(te *TaskEffector, tasks []*sched.Task, timeScale float64, seed int64) *Driver {
	local := make([]*sched.Task, 0, len(tasks))
	for _, t := range tasks {
		if t.Subtasks[0].Processor == te.Proc() {
			local = append(local, t.Clone())
		}
	}
	if timeScale <= 0 {
		timeScale = 1
	}
	return &Driver{
		te:    te,
		tasks: local,
		scale: timeScale,
		rng:   rand.New(rand.NewSource(seed)),
		stop:  make(chan struct{}),
	}
}

// Start launches one arrival goroutine per task. Stop terminates them.
func (d *Driver) Start() {
	for _, t := range d.tasks {
		t := t
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.generate(t)
		}()
	}
}

// Stop halts arrival generation and waits for the goroutines to exit.
func (d *Driver) Stop() {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	d.wg.Wait()
}

// generate produces the arrival sequence for one task until stopped.
func (d *Driver) generate(t *sched.Task) {
	next := time.Duration(float64(t.Phase) * d.scale)
	if t.Kind == sched.Aperiodic {
		next += d.exp(t.MeanInterarrival)
	}
	timer := time.NewTimer(next)
	defer timer.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-timer.C:
		}
		if _, err := d.te.Arrive(t.ID); err != nil {
			return // every arrival error is terminal
		}
		var gap time.Duration
		if t.Kind == sched.Periodic {
			gap = time.Duration(float64(t.Period) * d.scale)
		} else {
			gap = d.exp(t.MeanInterarrival)
		}
		timer.Reset(gap)
	}
}

// exp samples a scaled exponential interarrival.
func (d *Driver) exp(mean time.Duration) time.Duration {
	d.rngMu.Lock()
	u := d.rng.Float64()
	for u == 0 {
		u = d.rng.Float64()
	}
	d.rngMu.Unlock()
	return time.Duration(-float64(mean) * d.scale * math.Log(u))
}
