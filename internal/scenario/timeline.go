// Timeline compilation is a deterministic-replay surface: identical specs
// must compile to identical timelines on every run and every Go version.
//
//rtmw:deterministic file
package scenario

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	wspec "repro/internal/spec"
	"repro/internal/workload"
)

// OpSubmit is the arrival operation; the injection kinds reuse their spec
// names.
const OpSubmit = "submit"

// Op is one timeline operation in the scenario's virtual timebase — the one
// type the compiler emits, apply performs, the recorder writes (it is the
// journal's "op" line) and Replay feeds back. The op list is the scenario's
// entire input: executing it against a binding needs no further randomness,
// which is what makes the timeline recordable and replayable.
type Op struct {
	// At is the operation's scenario time.
	At wspec.Duration `json:"at"`
	// Op is OpSubmit or an injection kind.
	Op string `json:"op"`
	// Tasks are the arriving task IDs (OpSubmit; repeats mean multiple
	// arrivals at the same instant).
	Tasks []string `json:"tasks,omitempty"`
	// Add carries the joining task specs (add_tasks), unscaled — the live
	// binding scales them at apply time.
	Add []wspec.TaskSpec `json:"add,omitempty"`
	// IDs name the departing tasks (remove_tasks).
	IDs []string `json:"ids,omitempty"`
	// To is the target combination (reconfigure).
	To string `json:"to,omitempty"`
	// Node is the target processor (kill_node, recover_node).
	Node *int `json:"node,omitempty"`
}

// taskSeed derives a per-(block, task) rng seed from the scenario seed, so
// every task's timeline is independent but fully determined by the spec.
func taskSeed(seed int64, blockIdx int, taskID string) int64 {
	h := fnv.New64a()
	h.Write([]byte(taskID))
	return seed ^ int64(h.Sum64()) ^ (int64(blockIdx+1) * int64(0x9E3779B97F4A7C15&0x7FFFFFFFFFFFFFFF))
}

// compile validates a spec and lowers it to its deterministic op timeline:
// per-task arrival instants from the assigned shapes (tasks no block claims
// follow their natural process), submit storms expanded to arrival bursts,
// and the structural injections interleaved. Ops are sorted by time;
// injections order before arrivals at the same instant, so a task added at
// t receives its t arrivals and a task removed at t does not.
func compile(s *Spec) (*compiled, error) {
	l, err := s.check()
	if err != nil {
		return nil, err
	}
	horizon := time.Duration(s.Horizon)

	// Per-task arrival instants. Shape assignment: explicit block > default
	// block > natural.
	type arrival struct {
		at  time.Duration
		idx int
		id  string
	}
	var events []arrival
	// One generator, reseeded per task: Seed resets the source and its read
	// position, so each task's stream is what a fresh generator would give.
	rng := rand.New(rand.NewSource(0))
	for idx, t := range l.all {
		blockIdx, claimed := l.block[t.ID]
		if !claimed {
			blockIdx = l.defaultBlock
		}
		rng.Seed(taskSeed(s.Seed, blockIdx, t.ID))
		var times []time.Duration
		if blockIdx < 0 || s.Arrivals[blockIdx].Shape.Kind == string(workload.ShapeNatural) {
			times = workload.NaturalTimes(t, horizon, rng)
		} else {
			times = s.Arrivals[blockIdx].Shape.shape().Times(horizon, rng)
		}
		for _, at := range times {
			events = append(events, arrival{at: at, idx: idx, id: t.ID})
		}
	}

	// Submit storms are correlated arrival bursts at exact instants.
	for _, inj := range s.Injections {
		if inj.Kind != InjectSubmitStorm {
			continue
		}
		count := inj.Count
		if count <= 0 {
			count = 1
		}
		for _, id := range inj.IDs {
			for k := 0; k < count; k++ {
				events = append(events, arrival{at: time.Duration(inj.At), idx: l.index[id], id: id})
			}
		}
	}

	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].idx < events[j].idx
	})

	// Structural injections first (in spec order), then the grouped arrival
	// ops; the stable sort keeps injections ahead of arrivals at equal
	// times.
	var ops []Op
	for _, inj := range s.Injections {
		if inj.Kind != InjectSubmitStorm { // storms became arrivals above
			ops = append(ops, Op{At: inj.At, Op: inj.Kind, Add: inj.Tasks, IDs: inj.IDs, To: inj.To, Node: inj.Node})
		}
	}
	for i := 0; i < len(events); {
		j := i
		for j < len(events) && events[j].at == events[i].at {
			j++
		}
		ids := make([]string, 0, j-i)
		for _, e := range events[i:j] {
			ids = append(ids, e.id)
		}
		ops = append(ops, Op{At: wspec.Duration(events[i].at), Op: OpSubmit, Tasks: ids})
		i = j
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })

	l.ops = ops
	return l, nil
}
