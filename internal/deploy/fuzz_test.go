package deploy_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
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
// (a retired ref in every table, new refs on the task's subtasks), that
// plan after processor 0 fails over (the plan a recovered node is
// redeployed from, every updated instance recording its epoch), and
// planCuts prefixes of each, cut at even fractions of its length: the seed
// count does not depend on the plans' lengths, so a change to a plan's shape
// renames no seed.
func FuzzParsePlan(f *testing.F) {
	const planCuts = 221
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
		for i := range planCuts {
			f.Add(enc[:i*len(enc)/planCuts])
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
	rm.Apply(p, 1)
	add, err := configengine.AddTasksDelta(p, tasks[1:])
	if err != nil {
		f.Fatal(err)
	}
	add.Apply(p, 2)
	addPlan()
	fo, _, err := configengine.FailoverDelta(p, 0)
	if err != nil {
		f.Fatal(err)
	}
	fo.Apply(p, 3)
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

// requestCodecs lists the NodeManager requests' Decode/Append pairs behind
// `any`, so FuzzDecodeRequest can sweep all three with one loop.
var requestCodecs = []struct {
	name   string
	decode func([]byte) (any, error)
	encode func(any) []byte
}{
	{"Install",
		func(b []byte) (any, error) { v, err := deploy.DecodeInstall(b); return v, err },
		func(v any) []byte { r := v.(deploy.InstallRequest); return deploy.AppendInstall(nil, &r) }},
	{"Connect",
		func(b []byte) (any, error) { v, err := deploy.DecodeConnect(b); return v, err },
		func(v any) []byte { r := v.(deploy.ConnectRequest); return deploy.AppendConnect(nil, &r) }},
	{"Reconfig",
		func(b []byte) (any, error) { v, err := deploy.DecodeReconfig(b); return v, err },
		func(v any) []byte { r := v.(deploy.ReconfigRequest); return deploy.AppendReconfig(nil, &r) }},
}

// FuzzDecodeRequest feeds arbitrary bytes to every NodeManager request
// decoder under FuzzDecodePayload's contract: no panic; a failure always
// wraps ErrRequest; bytes that decode re-encode to themselves; and the heap
// the three decoders take together is at most 64 bytes per input byte plus
// 8 KiB. The linear term is a string count that passes its check at one
// string per byte left (16 bytes of string header each) plus the strings
// and, for a body whose keys ascend, the attribute map; a count's parity
// lets at most one of Install and Reconfigure reach the map. Measured above
// 200 bytes: 16 bytes per byte on a maximal count of empty strings, up to
// 35 on a valid body of short keys. The seeds are
// each request kind, with and without attributes (an empty set and an
// absent one encode alike), every truncation of each, maximal counts of
// both parities and the largest uvarint as a count.
func FuzzDecodeRequest(f *testing.F) {
	seeds := [][]byte{
		deploy.AppendInstall(nil, &deploy.InstallRequest{ID: "Sub-flow-0@P0", Implementation: "Subtask",
			Attrs: map[string]string{"Task": "flow", "TaskRef": "0", "Stage": "0", "Exec": "50ms"}}),
		deploy.AppendInstall(nil, &deploy.InstallRequest{ID: "HB-0", Implementation: "Heartbeat", Attrs: map[string]string{}}),
		deploy.AppendConnect(nil, &deploy.ConnectRequest{EventType: "Trigger", SinkAddr: "127.0.0.1:9101", SinkProc: 1}),
		deploy.AppendConnect(nil, &deploy.ConnectRequest{EventType: "TaskArrive", SinkAddr: "127.0.0.1:9100", SinkProc: -1}),
		deploy.AppendReconfig(nil, &deploy.ReconfigRequest{ID: "Central-AC",
			Attrs: map[string]string{"AC_Strategy": "J", "Epoch": "3", "IR_Strategy": "T", "LB_Strategy": "N"}}),
		deploy.AppendReconfig(nil, &deploy.ReconfigRequest{ID: "TE-1"}),
	}
	for _, b := range seeds {
		f.Add(b)
		for i := range b {
			f.Add(b[:i])
		}
	}
	// Counts of exactly the bytes left, every string empty: the count check
	// passes and the second key fails to ascend. Then the largest uvarint.
	for _, n := range []int{64, 65} {
		f.Add(slices.Concat([]byte{1, byte(n)}, make([]byte, n)))
	}
	f.Add(slices.Concat([]byte{1}, binary.AppendUvarint(nil, math.MaxUint64), make([]byte, 64)))

	f.Fuzz(func(t *testing.T, b []byte) {
		bound := uint64(64*len(b) + 8<<10)
		type result struct {
			v   any
			err error
		}
		results := make([]result, len(requestCodecs))
		if got := allocatedBytes(bound, func() {
			for i, c := range requestCodecs {
				results[i].v, results[i].err = c.decode(b)
			}
		}); got > bound {
			t.Errorf("decoding %d bytes allocated %d bytes, bound %d", len(b), got, bound)
		}
		for i, c := range requestCodecs {
			switch r := results[i]; {
			case r.err == nil:
				if again := c.encode(r.v); !bytes.Equal(again, b) {
					t.Errorf("%s: %x decodes to %+v, which re-encodes to %x", c.name, b, r.v, again)
				}
			case !errors.Is(r.err, deploy.ErrRequest):
				t.Errorf("%s: error %v does not wrap ErrRequest", c.name, r.err)
			}
		}
	})
}
