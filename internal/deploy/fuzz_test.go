package deploy_test

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/configengine"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/spec"
)

// allocatedBytes returns the heap bytes f allocates. A background goroutine
// of the test binary can add to one reading, so it keeps the smallest of a
// few and stops early once a reading is within the caller's bound.
func allocatedBytes(bound uint64, f func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for try := 0; try < 3 && best > bound; try++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// FuzzParsePlan feeds arbitrary bytes to the deployment-plan decoder under
// FuzzDecodePayload's contract: no panic; heap linear in the input; a
// failure always wraps ErrPlan; and decode∘encode is the identity: a plan
// that parses encodes to bytes that parse back to the same plan, and
// encoding that plan again yields the same bytes. XML spells one value many
// ways, so the input itself need not come back. The heap bound is 128 bytes
// per input byte, not the payload codec's 16: encoding/xml spends 64 per
// byte on a run of empty elements and 20 on a plain node list, with no
// length field for a hostile input to inflate. Its 8 KiB floor is the
// payload codec's; Parse spends 0.6 KiB on empty input and about 1 KiB on
// a one-element plan. The seeds are a generated plan, which carries the
// task refs tables, the same plan after a task is removed and added again
// (a retired ref in every table, new refs on the task's subtasks), and the
// prefixes of both.
func FuzzParsePlan(f *testing.F) {
	w, err := spec.Parse([]byte(`{"name": "fuzz", "processors": 2, "tasks": [
	  {"id": "flow", "kind": "periodic", "period": "1s", "deadline": "1s",
	   "subtasks": [{"exec": "50ms", "processor": 0, "replicas": [1]}, {"exec": "30ms", "processor": 1}]},
	  {"id": "alert", "kind": "aperiodic", "deadline": "400ms", "subtasks": [{"exec": "20ms", "processor": 1}]}]}`))
	if err != nil {
		f.Fatal(err)
	}
	manager := deploy.Node{Name: "manager", Address: "127.0.0.1:9100", Processor: -1}
	apps := []deploy.Node{{Name: "app0", Address: "127.0.0.1:9101", Processor: 0}, {Name: "app1", Address: "127.0.0.1:9102", Processor: 1}}
	p, err := configengine.GeneratePlan("fuzz", w, core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob}, manager, apps)
	if err != nil {
		f.Fatal(err)
	}
	addPlan := func() {
		enc, err := p.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		for i := 0; i < len(enc); i += 97 {
			f.Add(enc[:i])
		}
	}
	addPlan()
	tasks, err := w.SchedTasks()
	if err != nil {
		f.Fatal(err)
	}
	rm, err := configengine.RemoveTasksDelta(p, []string{"alert"})
	if err != nil {
		f.Fatal(err)
	}
	rm.Apply(p)
	add, err := configengine.AddTasksDelta(p, tasks[1:])
	if err != nil {
		f.Fatal(err)
	}
	add.Apply(p)
	addPlan()
	f.Add([]byte(`<deploymentPlan name="p"><node name="n" address="a" processor="-1"></node></deploymentPlan>`))
	f.Add([]byte(`<deploymentPlan name="p" xmlns="urn:x"><instance id="i" node="n" implementation="X"/></deploymentPlan>`))

	f.Fuzz(func(t *testing.T, b []byte) {
		bound := uint64(128*len(b) + 8<<10)
		var (
			plan *deploy.Plan
			err  error
		)
		if got := allocatedBytes(bound, func() { plan, err = deploy.Parse(b) }); got > bound {
			t.Errorf("parsing %d bytes allocated %d bytes, bound %d", len(b), got, bound)
		}
		if err != nil {
			if !errors.Is(err, deploy.ErrPlan) {
				t.Errorf("error %v does not wrap ErrPlan", err)
			}
			return
		}
		again, err := plan.Encode()
		if err != nil {
			t.Fatalf("a parsed plan does not encode: %v", err)
		}
		back, err := deploy.Parse(again)
		if err != nil {
			t.Fatalf("%q parses, but its encoding %q does not: %v", b, again, err)
		}
		if !reflect.DeepEqual(back, plan) {
			t.Fatalf("%q parses to %+v, whose encoding parses to %+v", b, plan, back)
		}
		if twice, err := back.Encode(); err != nil || !bytes.Equal(twice, again) {
			t.Fatalf("encoding is not a fixed point: %q then %q (%v)", again, twice, err)
		}
	})
}
