package live

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/sched"
)

// payloadCodec is one payload type's Append/Decode pair behind `any`, so the
// tests below can sweep all eight types with one loop.
type payloadCodec struct {
	name   string
	encode func(v any) []byte
	decode func(b []byte) (any, error)
	// golden is the type's sample value and goldenHex its pinned encoding.
	golden    any
	goldenHex string
	// random draws an arbitrary value of the type.
	random func(g *gen) any
}

func codecOf[T any](name string, app func([]byte, *T) []byte, dec func([]byte) (T, error),
	golden T, goldenHex string, random func(g *gen) T) payloadCodec {
	return payloadCodec{
		name:      name,
		encode:    func(v any) []byte { t := v.(T); return app(nil, &t) },
		decode:    func(b []byte) (any, error) { v, err := dec(b); return v, err },
		golden:    golden,
		goldenHex: goldenHex,
		random:    func(g *gen) any { return random(g) },
	}
}

var goldenPlacement = []sched.PlacedStage{{Stage: 0, Proc: 1, Util: 0.25}, {Stage: 1, Proc: 2, Util: 0.5}}

// payloadCodecs lists the eight payload types. The goldenHex column pins the
// wire layout: a field reorder, a changed tag or a different integer coding
// fails TestPayloadGoldenBytes. Reading guide for the first row:
// 01 tag | 02 "t1" | 06 Job 3 (zig-zag) | 02 Proc 1 | d00f ArrivalNanos 1000.
var payloadCodecs = []payloadCodec{
	codecOf("TaskArrive", AppendTaskArrive, DecodeTaskArrive,
		TaskArrive{Task: "t1", Job: 3, Proc: 1, ArrivalNanos: 1000},
		"01"+"027431"+"06"+"02"+"d00f",
		func(g *gen) TaskArrive {
			return TaskArrive{Task: g.str(), Job: g.i64(), Proc: g.int(), ArrivalNanos: g.i64()}
		}),
	codecOf("Accept", AppendAccept, DecodeAccept,
		Accept{Task: "t1", Job: -1, Ok: true, Placement: goldenPlacement, PerTaskDecision: true, ArrivalNanos: 1000, Epoch: 7},
		"02"+"027431"+"01"+"01"+"01"+"d00f"+"0e"+
			"02"+"0002"+"000000000000d03f"+"0204"+"000000000000e03f",
		func(g *gen) Accept {
			return Accept{Task: g.str(), Job: g.i64(), Ok: g.bool(), Placement: g.placement(),
				PerTaskDecision: g.bool(), ArrivalNanos: g.i64(), Epoch: g.i64()}
		}),
	codecOf("Trigger", AppendTrigger, DecodeTrigger,
		Trigger{Task: "t1", Job: 3, Stage: 1, Placement: goldenPlacement, ArrivalNanos: 1000},
		"03"+"027431"+"06"+"02"+
			"02"+"0002"+"000000000000d03f"+"0204"+"000000000000e03f"+"d00f",
		func(g *gen) Trigger {
			return Trigger{Task: g.str(), Job: g.i64(), Stage: g.int(), Placement: g.placement(), ArrivalNanos: g.i64()}
		}),
	codecOf("IdleReset", AppendIdleReset, DecodeIdleReset,
		IdleReset{Proc: 2, Entries: []sched.EntryRef{
			{Ref: sched.JobRef{Task: "t1", Job: 3}, Stage: 0, Proc: 2},
			{Ref: sched.JobRef{Task: "a", Job: 4}, Stage: 1, Proc: 2},
		}},
		"04"+"04"+"02"+"027431"+"06"+"00"+"04"+"0161"+"08"+"02"+"04",
		func(g *gen) IdleReset { return IdleReset{Proc: g.int(), Entries: g.entries()} }),
	codecOf("Complete", AppendComplete, DecodeComplete,
		Complete{Ref: sched.JobRef{Task: "t1", Job: 3}, Stage: 1, Kind: sched.Aperiodic, DeadlineNanos: 2000},
		"05"+"027431"+"06"+"02"+"04"+"a01f",
		func(g *gen) Complete {
			return Complete{Ref: g.jobRef(), Stage: g.int(), Kind: sched.TaskKind(g.int()), DeadlineNanos: g.i64()}
		}),
	codecOf("Heartbeat", AppendHeartbeat, DecodeHeartbeat,
		Heartbeat{Node: "app-1", Proc: 1, Seq: 9, SentNanos: 1000},
		"06"+"056170702d31"+"02"+"12"+"d00f",
		func(g *gen) Heartbeat {
			return Heartbeat{Node: g.str(), Proc: g.int(), Seq: g.i64(), SentNanos: g.i64()}
		}),
	codecOf("RepRecord", AppendRepRecord, DecodeRepRecord,
		RepRecord{Epoch: 7, Seq: 12, Kind: RepAdmit, Ref: sched.JobRef{Task: "t1", Job: 3},
			TaskKind: sched.Periodic, Placement: goldenPlacement, Permanent: true, ExpiryNanos: 2000,
			Task: "t1", Entries: []sched.EntryRef{{Ref: sched.JobRef{Task: "a", Job: 4}, Stage: 1, Proc: 2}}},
		"07"+"0e"+"18"+"0561646d6974"+"027431"+"06"+"02"+
			"02"+"0002"+"000000000000d03f"+"0204"+"000000000000e03f"+
			"01"+"a01f"+"027431"+"01"+"0161"+"08"+"02"+"04",
		func(g *gen) RepRecord {
			return RepRecord{Epoch: g.i64(), Seq: g.i64(), Kind: g.str(), Ref: g.jobRef(),
				TaskKind: sched.TaskKind(g.int()), Placement: g.placement(), Permanent: g.bool(),
				ExpiryNanos: g.i64(), Task: g.str(), Entries: g.entries()}
		}),
	codecOf("Done", AppendDone, DecodeDone,
		Done{Task: "t1", Job: 3, ArrivalNanos: 1000, DoneNanos: 3000},
		"08"+"027431"+"06"+"d00f"+"f02e",
		func(g *gen) Done {
			return Done{Task: g.str(), Job: g.i64(), ArrivalNanos: g.i64(), DoneNanos: g.i64()}
		}),
}

// gen draws field values biased towards the codec's edges: varint length
// boundaries, the extremes, empty and multi-byte strings, nil slices.
type gen struct{ *rand.Rand }

var edgeInts = []int64{0, 1, -1, 63, 64, -64, -65, 1 << 13, -(1 << 13) - 1, 1 << 31, -(1 << 31),
	1700000000000000000, math.MaxInt64, math.MinInt64}

func (g *gen) i64() int64 {
	if g.Intn(2) == 0 {
		return edgeInts[g.Intn(len(edgeInts))]
	}
	return int64(g.Uint64())
}

func (g *gen) int() int { return int(g.i64()) }

func (g *gen) bool() bool { return g.Intn(2) == 0 }

func (g *gen) str() string {
	switch g.Intn(5) {
	case 0:
		return ""
	case 1:
		return "task-é-日本語-🚀"
	case 2:
		return strings.Repeat("x", 127+g.Intn(3)) // either side of a 2-byte length
	default:
		b := make([]byte, g.Intn(24))
		g.Read(b) // arbitrary bytes: the codec does not require valid UTF-8
		return string(b)
	}
}

// util draws a float64 from raw bits (subnormals, infinities, negative zero)
// but never a NaN, so generated values compare with reflect.DeepEqual; NaNs
// have TestPayloadUtilBitPatterns.
func (g *gen) util() float64 {
	for {
		if f := math.Float64frombits(g.Uint64()); !math.IsNaN(f) {
			return f
		}
	}
}

func (g *gen) jobRef() sched.JobRef { return sched.JobRef{Task: g.str(), Job: g.i64()} }

func (g *gen) placement() []sched.PlacedStage {
	n := g.Intn(5)
	if n == 0 {
		return nil
	}
	out := make([]sched.PlacedStage, n)
	for i := range out {
		out[i] = sched.PlacedStage{Stage: g.int(), Proc: g.int(), Util: g.util()}
	}
	return out
}

func (g *gen) entries() []sched.EntryRef {
	n := g.Intn(5)
	if n == 0 {
		return nil
	}
	out := make([]sched.EntryRef, n)
	for i := range out {
		out[i] = sched.EntryRef{Ref: g.jobRef(), Stage: g.int(), Proc: g.int()}
	}
	return out
}

func TestPayloadRoundTrip(t *testing.T) {
	g := &gen{rand.New(rand.NewSource(13))}
	for _, c := range payloadCodecs {
		t.Run(c.name, func(t *testing.T) {
			values := []any{c.golden, reflect.Zero(reflect.TypeOf(c.golden)).Interface()}
			for i := 0; i < 500; i++ {
				values = append(values, c.random(g))
			}
			for _, v := range values {
				enc := c.encode(v)
				got, err := c.decode(enc)
				if err != nil {
					t.Fatalf("decode(encode(%+v)): %v", v, err)
				}
				if !reflect.DeepEqual(got, v) {
					t.Fatalf("round trip:\n got %+v\nwant %+v", got, v)
				}
				if again := c.encode(got); !bytes.Equal(again, enc) {
					t.Fatalf("re-encode of %+v differs: %x vs %x", v, again, enc)
				}
			}
		})
	}
}

func TestPayloadRoundTripEdges(t *testing.T) {
	t.Run("negative job", func(t *testing.T) {
		for _, job := range []int64{-1, -64, -65, math.MinInt64} {
			got, err := DecodeTaskArrive(AppendTaskArrive(nil, &TaskArrive{Task: "t", Job: job}))
			if err != nil || got.Job != job {
				t.Errorf("Job %d round-tripped as %d, err %v", job, got.Job, err)
			}
		}
	})
	t.Run("64 KiB task id", func(t *testing.T) {
		id := strings.Repeat("tâche-", 1<<16/len("tâche-")+1)[:1<<16]
		got, err := DecodeTrigger(AppendTrigger(nil, &Trigger{Task: id, Placement: goldenPlacement}))
		if err != nil || got.Task != id || !reflect.DeepEqual(got.Placement, goldenPlacement) {
			t.Errorf("64 KiB task id did not round-trip: len %d, err %v", len(got.Task), err)
		}
	})
	t.Run("nil and empty slices", func(t *testing.T) {
		// An empty slice and a nil one share one encoding (count 0) and both
		// decode as nil, as they did under gob: no handler tells them apart.
		nilEnc := AppendRepRecord(nil, &RepRecord{Kind: RepReset})
		emptyEnc := AppendRepRecord(nil, &RepRecord{Kind: RepReset,
			Placement: []sched.PlacedStage{}, Entries: []sched.EntryRef{}})
		if !bytes.Equal(nilEnc, emptyEnc) {
			t.Fatalf("nil and empty slices encode differently: %x vs %x", nilEnc, emptyEnc)
		}
		got, err := DecodeRepRecord(emptyEnc)
		if err != nil || got.Placement != nil || got.Entries != nil {
			t.Errorf("empty slices decoded as %#v / %#v, err %v; want nil", got.Placement, got.Entries, err)
		}
		acc, err := DecodeAccept(AppendAccept(nil, &Accept{Task: "t", Placement: []sched.PlacedStage{}}))
		if err != nil || acc.Placement != nil {
			t.Errorf("empty Placement decoded as %#v, err %v; want nil", acc.Placement, err)
		}
	})
}

// TestPayloadUtilBitPatterns: Util travels as its IEEE 754 bits, so every
// pattern — subnormals, negative zero, NaN payloads — survives unchanged.
func TestPayloadUtilBitPatterns(t *testing.T) {
	patterns := []uint64{
		0, 1 << 63, // +0, -0
		1, 0x000fffffffffffff, // smallest and largest subnormal
		0x8000000000000001,                     // negative subnormal
		0x0010000000000000,                     // smallest normal
		math.Float64bits(math.MaxFloat64),      // largest finite
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000000, 0x7ff0000000000001, 0xfff8dead0000beef, // quiet, signalling, payload NaN
		math.Float64bits(0.1),
	}
	in := make([]sched.PlacedStage, len(patterns))
	for i, bits := range patterns {
		in[i] = sched.PlacedStage{Stage: i, Proc: i, Util: math.Float64frombits(bits)}
	}
	got, err := DecodeTrigger(AppendTrigger(nil, &Trigger{Task: "t", Placement: in}))
	if err != nil {
		t.Fatal(err)
	}
	for i, bits := range patterns {
		if gotBits := math.Float64bits(got.Placement[i].Util); gotBits != bits {
			t.Errorf("Util bits %#016x round-tripped as %#016x", bits, gotBits)
		}
	}
}

func TestPayloadGoldenBytes(t *testing.T) {
	for _, c := range payloadCodecs {
		want, err := hex.DecodeString(c.goldenHex)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", c.name, err)
		}
		if got := c.encode(c.golden); !bytes.Equal(got, want) {
			t.Errorf("%s wire layout changed:\n got %x\nwant %x", c.name, got, want)
		}
		got, err := c.decode(want)
		if err != nil || !reflect.DeepEqual(got, c.golden) {
			t.Errorf("%s golden bytes decode to %+v, err %v; want %+v", c.name, got, err, c.golden)
		}
	}
}

// TestPayloadRejectsGob: a node from before the codec change sends gob. Every
// decoder refuses it with the typed sentinel rather than misreading it.
func TestPayloadRejectsGob(t *testing.T) {
	for _, c := range payloadCodecs {
		payload := gobEncode(c.golden)
		for _, d := range payloadCodecs {
			if v, err := d.decode(payload); !errors.Is(err, ErrPayload) {
				t.Errorf("gob %s through Decode%s = %+v, err %v; want ErrPayload", c.name, d.name, v, err)
			}
		}
	}
}

func TestPayloadStrictness(t *testing.T) {
	golden := func(name string) []byte {
		for _, c := range payloadCodecs {
			if c.name == name {
				b, _ := hex.DecodeString(c.goldenHex)
				return b
			}
		}
		t.Fatalf("no codec %s", name)
		return nil
	}
	trigger := golden("Trigger")
	accept := golden("Accept")
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"tag only", trigger[:1]},
		{"another type's payload", golden("Done")},
		{"trailing byte", append(bytes.Clone(trigger), 0)},
		{"padded varint", append([]byte{tagTrigger, 0x82, 0x00}, trigger[2:]...)}, // length 2 as 82 00
		{"11-byte varint", append([]byte{tagTrigger}, bytes.Repeat([]byte{0xff}, 11)...)},
		{"string longer than payload", []byte{tagTrigger, 0x7f, 't'}},
		{"count beyond payload", append(bytes.Clone(trigger[:6]), 0x7f)},
		{"truncated float", trigger[:len(trigger)-4]},
	}
	for _, tc := range cases {
		if v, err := DecodeTrigger(tc.payload); !errors.Is(err, ErrPayload) {
			t.Errorf("%s: DecodeTrigger = %+v, err %v; want ErrPayload", tc.name, v, err)
		}
	}
	// Accept's Ok flag is the byte after Task and Job.
	badBool := bytes.Clone(accept)
	badBool[5] = 2
	if v, err := DecodeAccept(badBool); !errors.Is(err, ErrPayload) {
		t.Errorf("bool 2: DecodeAccept = %+v, err %v; want ErrPayload", v, err)
	}
	// A failed decode hands back nothing half-filled.
	if v, _ := DecodeTrigger(trigger[:len(trigger)-1]); !reflect.DeepEqual(v, Trigger{}) {
		t.Errorf("failed decode returned %+v, want the zero value", v)
	}
}

// TestPayloadHeaderFilters: the in-place filters agree with a full decode.
func TestPayloadHeaderFilters(t *testing.T) {
	trg := Trigger{Task: "t1", Job: 3, Stage: 1, Placement: goldenPlacement, ArrivalNanos: 1000}
	enc := AppendTrigger(nil, &trg)
	for _, tc := range []struct {
		task        string
		stage, proc int
		want        bool
	}{
		{"t1", 1, 2, true},
		{"t1", 1, 1, false},  // stage 1 runs on proc 2
		{"t1", 0, 1, false},  // the event is for stage 1
		{"t2", 1, 2, false},  // another task
		{"t", 1, 2, false},   // a prefix of the task ID
		{"t1", -1, 2, false}, // no such stage
	} {
		if got := triggerAddressedTo(enc, tc.task, tc.stage, tc.proc); got != tc.want {
			t.Errorf("triggerAddressedTo(%q, stage %d, proc %d) = %v, want %v", tc.task, tc.stage, tc.proc, got, tc.want)
		}
	}
	past := trg
	past.Stage = len(trg.Placement) // a stage the placement does not cover
	if triggerAddressedTo(AppendTrigger(nil, &past), "t1", past.Stage, 2) {
		t.Error("triggerAddressedTo accepted a stage beyond the placement")
	}
	for i := range enc {
		if triggerAddressedTo(enc[:i], "t1", 1, 2) && i < len(enc)-2 {
			// The walk stops at the stage's Proc; only the trailing
			// ArrivalNanos may be missing, and DecodeTrigger rejects that.
			t.Errorf("triggerAddressedTo accepted a %d-byte truncation", i)
		}
	}
	if triggerAddressedTo(AppendDone(nil, &Done{Task: "t1"}), "t1", 1, 2) {
		t.Error("triggerAddressedTo accepted a Done payload")
	}
	if allocs := testing.AllocsPerRun(100, func() { triggerAddressedTo(enc, "t1", 1, 2) }); allocs != 0 {
		t.Errorf("triggerAddressedTo allocates %.0f times, want 0", allocs)
	}

	acc := AppendAccept(nil, &Accept{Task: "t1", Job: 3, Ok: true, Placement: goldenPlacement})
	if id, ok := acceptTask(acc); !ok || string(id) != "t1" {
		t.Errorf("acceptTask = %q, %v; want t1", id, ok)
	}
	if _, ok := acceptTask(enc); ok {
		t.Error("acceptTask accepted a Trigger payload")
	}
	if _, ok := acceptTask(acc[:2]); ok {
		t.Error("acceptTask accepted a truncated task ID")
	}
}

// checkCodecAllocs fails t unless one Append of v allocates what growing one
// buffer does and one Decode of it decodeAllocs times. Growing a buffer is
// one allocation, two under the race detector, whose build does not fuse
// slices.Grow's append and make.
func checkCodecAllocs[T any](t *testing.T, name string, v T, app func([]byte, *T) []byte, dec func([]byte) (T, error), decodeAllocs float64) {
	t.Helper()
	enc := app(nil, &v)
	grow := testing.AllocsPerRun(100, func() { sinkBytes = slices.Grow([]byte(nil), len(enc)) })
	if allocs := testing.AllocsPerRun(100, func() { sinkBytes = app(nil, &v) }); allocs != grow {
		t.Errorf("%s: encode allocates %v times, want %v (one buffer)", name, allocs, grow)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := dec(enc); err != nil {
			t.Fatal(err)
		}
	}); allocs != decodeAllocs {
		t.Errorf("%s: decode allocates %v times, want %v", name, allocs, decodeAllocs)
	}
}

// TestPayloadCodecAllocs holds the four payload types of the per-job path to
// their allocation counts: one buffer per encode; per decode, one backing
// array per slice and one copy per non-empty string. BenchmarkPayloadCodec
// times the same values.
func TestPayloadCodecAllocs(t *testing.T) {
	const now = 1790000000000000000
	checkCodecAllocs(t, "TaskArrive", TaskArrive{Task: "task-017", Job: 4211, Proc: 2, ArrivalNanos: now},
		AppendTaskArrive, DecodeTaskArrive, 1)
	checkCodecAllocs(t, "Accept", Accept{Task: "task-017", Job: 4211, Ok: true, Placement: benchPlacement, ArrivalNanos: now, Epoch: 3},
		AppendAccept, DecodeAccept, 2)
	checkCodecAllocs(t, "Trigger", Trigger{Task: "task-017", Job: 4211, Stage: 1, Placement: benchPlacement, ArrivalNanos: now},
		AppendTrigger, DecodeTrigger, 2)
	checkCodecAllocs(t, "RepRecord", RepRecord{Epoch: 3, Seq: 90210, Kind: RepAdmit, Ref: sched.JobRef{Task: "task-017", Job: 4211},
		TaskKind: sched.Aperiodic, Placement: benchPlacement, ExpiryNanos: now},
		AppendRepRecord, DecodeRepRecord, 3)
}

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

// FuzzDecodePayload feeds arbitrary bytes to every typed decoder. None may
// panic; none may allocate more than a small multiple of the input (a
// hostile count or length must be refused before it sizes anything); a
// failure is always ErrPayload; and bytes that decode re-encode to themselves,
// so the layout has exactly one encoding per value.
func FuzzDecodePayload(f *testing.F) {
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	for _, c := range payloadCodecs {
		golden, err := hex.DecodeString(c.goldenHex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
		// A whole payload followed by a stray byte.
		f.Add(append(bytes.Clone(golden), 0))
		for i := range golden {
			f.Add(golden[:i])
			// Every length and count field (and every other byte) replaced
			// by the largest uvarint.
			f.Add(slices.Concat(golden[:i], huge, golden[i+1:]))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// In memory a decoded EntryRef is ten times its smallest encoding
		// and a PlacedStage 2.4 times; the constant covers the eight boxed
		// results and error values.
		bound := uint64(16*len(b) + 8192)
		type result struct {
			v   any
			err error
		}
		results := make([]result, len(payloadCodecs))
		got := allocatedBytes(bound, func() {
			for i, c := range payloadCodecs {
				results[i].v, results[i].err = c.decode(b)
			}
		})
		if got > bound {
			t.Errorf("decoding %d bytes allocated %d bytes, bound %d", len(b), got, bound)
		}
		for i, c := range payloadCodecs {
			switch r := results[i]; {
			case r.err == nil:
				if again := c.encode(r.v); !bytes.Equal(again, b) {
					t.Errorf("%s: %x decodes to %+v, which re-encodes to %x", c.name, b, r.v, again)
				}
			case !errors.Is(r.err, ErrPayload):
				t.Errorf("%s: error %v does not wrap ErrPayload", c.name, r.err)
			}
		}
	})
}
