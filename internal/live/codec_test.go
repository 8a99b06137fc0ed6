package live

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
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
// tests below can sweep all seven types with one loop.
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

// payloadCodecs lists the seven payload types. The goldenHex column pins the
// wire layout: a field reorder, a changed tag or a different integer coding
// fails TestPayloadGoldenBytes. Tag 7 is retired, so Done keeps 08. Reading
// guide for the first row:
// 01 tag | 02 Task ref 1 (zig-zag) | 06 Job 3 | 02 Proc 1 | d00f ArrivalNanos 1000.
var payloadCodecs = []payloadCodec{
	codecOf("TaskArrive", AppendTaskArrive, DecodeTaskArrive,
		TaskArrive{Task: 1, Job: 3, Proc: 1, ArrivalNanos: 1000},
		"01"+"02"+"06"+"02"+"d00f",
		func(g *gen) TaskArrive {
			return TaskArrive{Task: g.ref(), Job: g.i64(), Proc: g.int(), ArrivalNanos: g.i64()}
		}),
	codecOf("Accept", AppendAccept, DecodeAccept,
		Accept{Task: 1, Job: -1, Ok: true, Placement: goldenPlacement, PerTaskDecision: true, ArrivalNanos: 1000, Epoch: 7},
		"02"+"02"+"01"+"01"+"01"+"d00f"+"0e"+
			"02"+"0002"+"000000000000d03f"+"0204"+"000000000000e03f",
		func(g *gen) Accept {
			return Accept{Task: g.ref(), Job: g.i64(), Ok: g.bool(), Placement: g.placement(),
				PerTaskDecision: g.bool(), ArrivalNanos: g.i64(), Epoch: g.i64()}
		}),
	codecOf("Trigger", AppendTrigger, DecodeTrigger,
		Trigger{Task: 1, Job: 3, Stage: 1, Placement: goldenPlacement, ArrivalNanos: 1000},
		"03"+"02"+"06"+"02"+
			"02"+"0002"+"000000000000d03f"+"0204"+"000000000000e03f"+"d00f",
		func(g *gen) Trigger {
			return Trigger{Task: g.ref(), Job: g.i64(), Stage: g.int(), Placement: g.placement(), ArrivalNanos: g.i64()}
		}),
	codecOf("IdleReset", AppendIdleReset, DecodeIdleReset,
		IdleReset{Proc: 2, Entries: []sched.Entry[sched.JobKey]{
			{Ref: sched.JobKey{Task: 1, Job: 3}, Stage: 0, Proc: 2},
			{Ref: sched.JobKey{Task: 4, Job: 4}, Stage: 1, Proc: 2},
		}},
		"04"+"04"+"02"+"02"+"06"+"00"+"04"+"08"+"08"+"02"+"04",
		func(g *gen) IdleReset { return IdleReset{Proc: g.int(), Entries: g.entries()} }),
	codecOf("Complete", AppendComplete, DecodeComplete,
		Complete{Ref: sched.JobKey{Task: 1, Job: 3}, Stage: 1, Kind: sched.Aperiodic, DeadlineNanos: 2000},
		"05"+"02"+"06"+"02"+"04"+"a01f",
		func(g *gen) Complete {
			return Complete{Ref: g.jobKey(), Stage: g.int(), Kind: sched.TaskKind(g.int()), DeadlineNanos: g.i64()}
		}),
	codecOf("Heartbeat", AppendHeartbeat, DecodeHeartbeat,
		Heartbeat{Node: "app-1", Proc: 1, Seq: 9, SentNanos: 1000},
		"06"+"056170702d31"+"02"+"12"+"d00f",
		func(g *gen) Heartbeat {
			return Heartbeat{Node: g.str(), Proc: g.int(), Seq: g.i64(), SentNanos: g.i64()}
		}),
	codecOf("Done", AppendDone, DecodeDone,
		Done{Task: 1, Job: 3, ArrivalNanos: 1000, DoneNanos: 3000},
		"08"+"02"+"06"+"d00f"+"f02e",
		func(g *gen) Done {
			return Done{Task: g.ref(), Job: g.i64(), ArrivalNanos: g.i64(), DoneNanos: g.i64()}
		}),
}

// gen draws field values biased towards the codec's edges: varint length
// boundaries, the extremes, empty and multi-byte strings, nil slices.
type gen struct{ *rand.Rand }

var edgeInts = []int64{0, 1, -1, 63, 64, -64, -65, 1 << 13, -(1 << 13) - 1, 1<<31 - 1, 1 << 31, -(1 << 31),
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

// ref draws a task ref: an edge value or arbitrary bits, cut to the 31 a
// ref may use.
func (g *gen) ref() sched.TaskRef { return sched.TaskRef(g.i64() & math.MaxInt32) }

func (g *gen) jobKey() sched.JobKey { return sched.JobKey{Task: g.ref(), Job: g.i64()} }

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

func (g *gen) entries() []sched.Entry[sched.JobKey] {
	n := g.Intn(5)
	if n == 0 {
		return nil
	}
	out := make([]sched.Entry[sched.JobKey], n)
	for i := range out {
		out[i] = sched.Entry[sched.JobKey]{Ref: g.jobKey(), Stage: g.int(), Proc: g.int()}
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
			got, err := DecodeTaskArrive(AppendTaskArrive(nil, &TaskArrive{Task: 1, Job: job}))
			if err != nil || got.Job != job {
				t.Errorf("Job %d round-tripped as %d, err %v", job, got.Job, err)
			}
		}
	})
	// Task IDs no longer travel (payloads carry refs); the long-string case
	// holds for the one name the wire still carries, a heartbeat's node.
	t.Run("64 KiB task id", func(t *testing.T) {
		id := strings.Repeat("tâche-", 1<<16/len("tâche-")+1)[:1<<16]
		got, err := DecodeHeartbeat(AppendHeartbeat(nil, &Heartbeat{Node: id, Seq: 1}))
		if err != nil || got.Node != id {
			t.Errorf("64 KiB node name did not round-trip: len %d, err %v", len(got.Node), err)
		}
	})
	t.Run("extreme task refs", func(t *testing.T) {
		for _, ref := range []sched.TaskRef{0, math.MaxInt32} {
			got, err := DecodeDone(AppendDone(nil, &Done{Task: ref, Job: 1}))
			if err != nil || got.Task != ref {
				t.Errorf("ref %d round-tripped as %d, err %v", ref, got.Task, err)
			}
		}
		// Refs are never negative; the decoder refuses one.
		for _, ref := range []sched.TaskRef{-1, math.MinInt32} {
			if got, err := DecodeDone(AppendDone(nil, &Done{Task: ref, Job: 1})); !errors.Is(err, ErrPayload) {
				t.Errorf("ref %d decoded as %+v, err %v; want ErrPayload", ref, got, err)
			}
		}
	})
	t.Run("nil and empty slices", func(t *testing.T) {
		// An empty slice and a nil one share one encoding (count 0) and both
		// decode as nil, as they did under gob: no handler tells them apart.
		nilEnc := AppendIdleReset(nil, &IdleReset{Proc: 1})
		emptyEnc := AppendIdleReset(nil, &IdleReset{Proc: 1, Entries: []sched.Entry[sched.JobKey]{}})
		if !bytes.Equal(nilEnc, emptyEnc) {
			t.Fatalf("nil and empty slices encode differently: %x vs %x", nilEnc, emptyEnc)
		}
		got, err := DecodeIdleReset(emptyEnc)
		if err != nil || got.Entries != nil {
			t.Errorf("empty Entries decoded as %#v, err %v; want nil", got.Entries, err)
		}
		acc, err := DecodeAccept(AppendAccept(nil, &Accept{Task: 1, Placement: []sched.PlacedStage{}}))
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
	got, err := DecodeTrigger(AppendTrigger(nil, &Trigger{Task: 1, Placement: in}))
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
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c.golden); err != nil {
			t.Fatal(err)
		}
		payload := buf.Bytes()
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
	done := golden("Done")
	cases := []struct {
		name    string
		payload []byte
		// decode is DecodeTrigger unless set.
		decode func([]byte) (any, error)
	}{
		{"empty", nil, nil},
		{"tag only", trigger[:1], nil},
		{"another type's payload", done, nil},
		// Tag 7 tagged the retired replication record: Done's own decoder
		// refuses its bytes under that tag.
		{"retired tag 7", append([]byte{7}, done[1:]...), func(b []byte) (any, error) { return DecodeDone(b) }},
		{"trailing byte", append(bytes.Clone(trigger), 0), nil},
		{"padded varint", append([]byte{tagTrigger, 0x82, 0x00}, trigger[2:]...), nil}, // ref 1 as 82 00
		{"11-byte varint", append([]byte{tagTrigger}, bytes.Repeat([]byte{0xff}, 11)...), nil},
		{"ref beyond 32 bits", append(binary.AppendVarint([]byte{tagTrigger}, 1<<31), trigger[2:]...), nil},
		{"negative ref", append(binary.AppendVarint([]byte{tagTrigger}, -1), trigger[2:]...), nil},
		{"count beyond payload", append(bytes.Clone(trigger[:4]), 0x7f), nil},
		{"truncated float", trigger[:len(trigger)-4], nil},
	}
	for _, tc := range cases {
		if tc.decode == nil {
			tc.decode = func(b []byte) (any, error) { return DecodeTrigger(b) }
		}
		if v, err := tc.decode(tc.payload); !errors.Is(err, ErrPayload) {
			t.Errorf("%s: decode = %+v, err %v; want ErrPayload", tc.name, v, err)
		}
	}
	// Accept's Ok flag is the byte after Task and Job.
	badBool := bytes.Clone(accept)
	badBool[3] = 2
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
	trg := Trigger{Task: 1, Job: 3, Stage: 1, Placement: goldenPlacement, ArrivalNanos: 1000}
	enc := AppendTrigger(nil, &trg)
	for _, tc := range []struct {
		task        sched.TaskRef
		stage, proc int
		want        bool
	}{
		{1, 1, 2, true},
		{1, 1, 1, false},  // stage 1 runs on proc 2
		{1, 0, 1, false},  // the event is for stage 1
		{2, 1, 2, false},  // another task
		{1, -1, 2, false}, // no such stage
	} {
		if got := triggerAddressedTo(enc, tc.task, tc.stage, tc.proc); got != tc.want {
			t.Errorf("triggerAddressedTo(ref %d, stage %d, proc %d) = %v, want %v", tc.task, tc.stage, tc.proc, got, tc.want)
		}
	}
	past := trg
	past.Stage = len(trg.Placement) // a stage the placement does not cover
	if triggerAddressedTo(AppendTrigger(nil, &past), 1, past.Stage, 2) {
		t.Error("triggerAddressedTo accepted a stage beyond the placement")
	}
	for i := range enc {
		if triggerAddressedTo(enc[:i], 1, 1, 2) && i < len(enc)-2 {
			// The walk stops at the stage's Proc; only the trailing
			// ArrivalNanos may be missing, and DecodeTrigger rejects that.
			t.Errorf("triggerAddressedTo accepted a %d-byte truncation", i)
		}
	}
	if triggerAddressedTo(AppendDone(nil, &Done{Task: 1}), 1, 1, 2) {
		t.Error("triggerAddressedTo accepted a Done payload")
	}
	if allocs := testing.AllocsPerRun(100, func() { triggerAddressedTo(enc, 1, 1, 2) }); allocs != 0 {
		t.Errorf("triggerAddressedTo allocates %.0f times, want 0", allocs)
	}

	acc := AppendAccept(nil, &Accept{Task: 300, Job: 3, Ok: true, Placement: goldenPlacement})
	if ref, ok := acceptTask(acc); !ok || ref != 300 {
		t.Errorf("acceptTask = %d, %v; want 300", ref, ok)
	}
	if _, ok := acceptTask(enc); ok {
		t.Error("acceptTask accepted a Trigger payload")
	}
	if _, ok := acceptTask(acc[:2]); ok {
		t.Error("acceptTask accepted a truncated task ref")
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
// array per slice and one copy per non-empty string, and a task ref is no
// string. BenchmarkPayloadCodec times the same values.
func TestPayloadCodecAllocs(t *testing.T) {
	const now = 1790000000000000000
	checkCodecAllocs(t, "TaskArrive", TaskArrive{Task: 17, Job: 4211, Proc: 2, ArrivalNanos: now},
		AppendTaskArrive, DecodeTaskArrive, 0)
	checkCodecAllocs(t, "Accept", Accept{Task: 17, Job: 4211, Ok: true, Placement: benchPlacement, ArrivalNanos: now, Epoch: 3},
		AppendAccept, DecodeAccept, 1)
	checkCodecAllocs(t, "Trigger", Trigger{Task: 17, Job: 4211, Stage: 1, Placement: benchPlacement, ArrivalNanos: now},
		AppendTrigger, DecodeTrigger, 1)
	checkCodecAllocs(t, "IdleReset", IdleReset{Proc: 2, Entries: benchEntries},
		AppendIdleReset, DecodeIdleReset, 1)
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
		// The payload under every other type's tag, and under retired tag 7.
		f.Add(append([]byte{7}, golden[1:]...))
		for _, other := range payloadCodecs {
			if other.name != c.name {
				o, _ := hex.DecodeString(other.goldenHex)
				f.Add(append([]byte{o[0]}, golden[1:]...))
			}
		}
		for i := range golden {
			f.Add(golden[:i])
			// Every length and count field (and every other byte) replaced
			// by the largest uvarint.
			f.Add(slices.Concat(golden[:i], huge, golden[i+1:]))
			// Every byte with its top bit flipped: a varint that ends early
			// or runs on into the next field.
			flipped := bytes.Clone(golden)
			flipped[i] ^= 0x80
			f.Add(flipped)
		}
	}
	// The load balancer's Location reply, a job-less Accept.
	f.Add(locationReply(3, goldenPlacement))
	f.Fuzz(func(t *testing.T, b []byte) {
		// In memory a decoded entry is eight times its smallest encoding
		// and a PlacedStage 2.4 times; the constant covers the seven boxed
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
