package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// arrival is one scheduled job: when it is due, as an offset from the start
// of the measured window, and which task of the workload's task list it is a
// job of.
type arrival struct {
	Due  time.Duration
	Task int
}

// poissonSchedule fixes an open-loop arrival schedule in advance: a Poisson
// process at rate per second over the window, conditioned on its count, which
// is rate x window exactly (the arrival instants of such a process are
// independent and uniform over the window), so that runs with different seeds
// offer the same load; each arrival is for a task picked uniformly from
// numTasks. The same seed gives the same schedule, byte for byte; the system
// under test only ever sees the resulting Submit calls.
func poissonSchedule(seed int64, rate float64, window time.Duration, numTasks int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, int(math.Round(rate*window.Seconds())))
	for i := range out {
		out[i].Due = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	for i := range out {
		out[i].Task = rng.Intn(numTasks)
	}
	return out
}

// taskPicker is the closed-loop counterpart: the order in which tasks are
// submitted is fixed by the seed, the instants are set by the system's own
// replies.
type taskPicker struct {
	rng      *rand.Rand
	numTasks int
}

func newTaskPicker(seed int64, numTasks int) *taskPicker {
	return &taskPicker{rng: rand.New(rand.NewSource(seed)), numTasks: numTasks}
}

func (p *taskPicker) next() int { return p.rng.Intn(p.numTasks) }
