package scenario

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	wspec "repro/internal/spec"
)

// validSpec returns a minimal spec that passes validation; tests mutate it.
func validSpec() *Spec {
	fig := 0
	return &Spec{
		Name:     "t",
		Config:   "T_T_T",
		Horizon:  wspec.Duration(5_000_000_000),
		Seed:     1,
		Workload: WorkloadRef{Figure5: &fig},
		Arrivals: []ArrivalBlock{
			{Tasks: []string{"A0"}, Shape: ShapeSpec{Kind: "constant", Rate: 2}},
		},
		Invariants: &Invariants{ZeroAdmittedLoss: true},
	}
}

// Every malformed spec must be rejected with the matching typed error, so
// tools can branch on errors.Is instead of scraping messages.
func TestSpecValidationErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   error
	}{
		{
			name:   "bad arrival shape kind",
			mutate: func(s *Spec) { s.Arrivals[0].Shape.Kind = "sawtooth" },
			want:   ErrUnknownShape,
		},
		{
			name:   "bad arrival shape parameters",
			mutate: func(s *Spec) { s.Arrivals[0].Shape.Rate = -3 },
			want:   ErrSpec,
		},
		{
			name:   "missing invariant block",
			mutate: func(s *Spec) { s.Invariants = nil },
			want:   ErrMissingInvariants,
		},
		{
			name:   "empty invariant block",
			mutate: func(s *Spec) { s.Invariants = &Invariants{} },
			want:   ErrMissingInvariants,
		},
		{
			name: "unknown injection kind",
			mutate: func(s *Spec) {
				s.Injections = []Injection{{Kind: "chaos_monkey"}}
			},
			want: ErrUnknownInjection,
		},
		{
			name:   "missing name",
			mutate: func(s *Spec) { s.Name = "" },
			want:   ErrSpec,
		},
		{
			name:   "bad config",
			mutate: func(s *Spec) { s.Config = "N_N_N" },
			want:   ErrSpec,
		},
		{
			name:   "non-positive horizon",
			mutate: func(s *Spec) { s.Horizon = 0 },
			want:   ErrSpec,
		},
		{
			name:   "unknown arrival task",
			mutate: func(s *Spec) { s.Arrivals[0].Tasks = []string{"ghost"} },
			want:   ErrSpec,
		},
		{
			name: "duplicate task claim",
			mutate: func(s *Spec) {
				s.Arrivals = append(s.Arrivals, ArrivalBlock{
					Tasks: []string{"A0"}, Shape: ShapeSpec{Kind: "constant", Rate: 1},
				})
			},
			want: ErrSpec,
		},
		{
			name: "two default blocks",
			mutate: func(s *Spec) {
				s.Arrivals = []ArrivalBlock{
					{Shape: ShapeSpec{Kind: "constant", Rate: 1}},
					{Shape: ShapeSpec{Kind: "constant", Rate: 2}},
				}
			},
			want: ErrSpec,
		},
		{
			name: "injection beyond horizon",
			mutate: func(s *Spec) {
				s.Injections = []Injection{{At: s.Horizon * 2, Kind: InjectSubmitStorm, IDs: []string{"A0"}}}
			},
			want: ErrSpec,
		},
		{
			name: "remove_tasks without ids",
			mutate: func(s *Spec) {
				s.Injections = []Injection{{Kind: InjectRemoveTasks}}
			},
			want: ErrSpec,
		},
		{
			name: "reconfigure to invalid combo",
			mutate: func(s *Spec) {
				s.Injections = []Injection{{Kind: InjectReconfigure, To: "T_J_T"}}
			},
			want: ErrSpec,
		},
		{
			name: "workload with no selector",
			mutate: func(s *Spec) {
				s.Workload = WorkloadRef{}
				s.Arrivals = nil
			},
			want: ErrSpec,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid spec")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not match %v", err, tc.want)
			}
			// Every rejection is also an ErrSpec.
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("error %v does not wrap ErrSpec", err)
			}
		})
	}
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// Parse must reject syntax errors and unknown fields with ErrSpec.
func TestParseStrict(t *testing.T) {
	if _, err := Parse([]byte("{not json")); !errors.Is(err, ErrSpec) {
		t.Fatalf("syntax error: got %v, want ErrSpec", err)
	}
	unknown := `{"name":"x","config":"T_T_T","horizon":"5s","workload":{"figure5":0},"invariants":{"zeroAdmittedLoss":true},"typoField":1}`
	if _, err := Parse([]byte(unknown)); !errors.Is(err, ErrSpec) {
		t.Fatalf("unknown field: got %v, want ErrSpec", err)
	}
	ok := `{"name":"x","config":"T_T_T","horizon":"5s","seed":3,"workload":{"figure5":0},"invariants":{"zeroAdmittedLoss":true}}`
	s, err := Parse([]byte(ok))
	if err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}
	if s.Name != "x" || s.Seed != 3 {
		t.Fatalf("parsed spec wrong: %+v", s)
	}
}

// The compiled timeline is deterministic and ordered, with structural
// injections ahead of arrivals at equal instants.
func TestCompileDeterministicAndOrdered(t *testing.T) {
	s := validSpec()
	s.Injections = []Injection{
		{At: s.Horizon / 2, Kind: InjectSubmitStorm, IDs: []string{"A1"}, Count: 3},
		{At: s.Horizon / 2, Kind: InjectReconfigure, To: "J_J_J"},
	}
	a, err := compile(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.ops) != len(b.ops) {
		t.Fatalf("compile nondeterministic: %d vs %d ops", len(a.ops), len(b.ops))
	}
	reconfigSeen := false
	stormArrivals := 0
	for i, op := range a.ops {
		bop := b.ops[i]
		if op.At != bop.At || op.Op != bop.Op || len(op.Tasks) != len(bop.Tasks) {
			t.Fatalf("compile nondeterministic at op %d: %+v vs %+v", i, op, bop)
		}
		if i > 0 && op.At < a.ops[i-1].At {
			t.Fatalf("ops out of order at %d: %v after %v", i, op.At, a.ops[i-1].At)
		}
		if op.Op == InjectReconfigure {
			reconfigSeen = true
		}
		if op.Op == OpSubmit && op.At == s.Horizon/2 {
			if !reconfigSeen {
				t.Fatal("arrival op at the injection instant ran before the reconfigure")
			}
			for _, id := range op.Tasks {
				if id == "A1" {
					stormArrivals++
				}
			}
		}
	}
	if stormArrivals < 3 {
		t.Fatalf("submit storm lost arrivals: %d of 3", stormArrivals)
	}
	if !strings.HasPrefix(a.tasks[0].ID, "A") && !strings.HasPrefix(a.tasks[0].ID, "P") {
		t.Fatalf("unexpected workload task %q", a.tasks[0].ID)
	}
}

// Node-fault injections validate their target and per-node kill/recover
// alternation, and compile into ordered ops carrying the node index.
func TestNodeFaultValidationAndCompile(t *testing.T) {
	node := func(n int) *int { return &n }
	bad := []struct {
		name       string
		injections []Injection
	}{
		{"kill without node", []Injection{{At: 1, Kind: InjectKillNode}}},
		{"recover without node", []Injection{{At: 1, Kind: InjectRecoverNode}}},
		{"node out of range", []Injection{{At: 1, Kind: InjectKillNode, Node: node(9)}}},
		{"negative node", []Injection{{At: 1, Kind: InjectKillNode, Node: node(-1)}}},
		{"double kill", []Injection{
			{At: 1, Kind: InjectKillNode, Node: node(0)},
			{At: 2, Kind: InjectKillNode, Node: node(0)},
		}},
		{"recover before kill", []Injection{{At: 1, Kind: InjectRecoverNode, Node: node(0)}}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			s.Injections = tc.injections
			if err := s.Validate(); !errors.Is(err, ErrSpec) {
				t.Fatalf("Validate = %v, want ErrSpec", err)
			}
		})
	}

	// Kill/recover/kill on one node alternates legally; a second node's kill
	// is independent.
	s := validSpec()
	s.Injections = []Injection{
		{At: s.Horizon / 4, Kind: InjectKillNode, Node: node(1)},
		{At: s.Horizon / 2, Kind: InjectRecoverNode, Node: node(1)},
		{At: 3 * s.Horizon / 4, Kind: InjectKillNode, Node: node(1)},
		{At: s.Horizon / 2, Kind: InjectKillNode, Node: node(2)},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("legal fault schedule rejected: %v", err)
	}
	tl, err := compile(s)
	if err != nil {
		t.Fatal(err)
	}
	kills, recovers := 0, 0
	for i, op := range tl.ops {
		switch op.Op {
		case InjectKillNode:
			kills++
			if *op.Node != 1 && *op.Node != 2 {
				t.Errorf("kill op targets node %d", *op.Node)
			}
		case InjectRecoverNode:
			recovers++
			if *op.Node != 1 {
				t.Errorf("recover op targets node %d", *op.Node)
			}
		case OpSubmit:
			// Faults sort ahead of arrivals at the same instant, so a
			// same-tick arrival always sees the post-fault cluster.
			for j := i + 1; j < len(tl.ops); j++ {
				if tl.ops[j].At == op.At && tl.ops[j].Op == InjectKillNode {
					t.Fatalf("kill op at %v ordered after an arrival at the same instant", op.At)
				}
			}
		}
	}
	if kills != 3 || recovers != 1 {
		t.Fatalf("compiled %d kills and %d recovers, want 3 and 1", kills, recovers)
	}
}

// FuzzParseScenario feeds the spec decoder arbitrary bytes, seeded with the
// checked-in scenarios. It must not panic, must refuse with an error that
// wraps ErrSpec, and a spec it accepts, encoded again with json.Marshal,
// must parse to an equal spec.
func FuzzParseScenario(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no checked-in scenarios: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("error does not wrap ErrSpec: %v", err)
			}
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("encoding an accepted spec: %v", err)
		}
		again, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-encoded spec refused: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v\n%s", again, s, enc)
		}
	})
}
