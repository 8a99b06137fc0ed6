package live

import (
	"testing"

	"repro/internal/sched"
)

// benchPlacement is a three-stage job's assignment, the benchmark task
// sets' usual chain length.
var benchPlacement = []sched.PlacedStage{
	{Stage: 0, Proc: 1, Util: 0.04}, {Stage: 1, Proc: 3, Util: 0.025}, {Stage: 2, Proc: 0, Util: 0.0125},
}

// benchEntries is one idle report's completed subjobs: two jobs' stages on
// one processor.
var benchEntries = []sched.Entry[sched.JobKey]{
	{Ref: sched.JobKey{Task: 17, Job: 4211}, Stage: 0, Proc: 2},
	{Ref: sched.JobKey{Task: 9, Job: 880}, Stage: 1, Proc: 2},
}

func benchPayload[T any](b *testing.B, name string, v T, app func([]byte, *T) []byte, dec func([]byte) (T, error)) {
	enc := app(nil, &v)
	b.Run("encode/"+name, func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			sinkBytes = app(nil, &v)
		}
	})
	b.Run("decode/"+name, func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if _, err := dec(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sinkBytes keeps the encoders' results alive, as ch.Push does on the live
// path: the buffer is heap-allocated once per event.
var sinkBytes []byte

// BenchmarkPayloadCodec measures the per-event payload codec on the four
// types of the per-job path. TestPayloadCodecAllocs holds the allocs/op
// columns: one buffer per encode; per decode, one backing array per slice and
// one copy per non-empty string.
func BenchmarkPayloadCodec(b *testing.B) {
	const now = 1790000000000000000
	benchPayload(b, "TaskArrive",
		TaskArrive{Task: 17, Job: 4211, Proc: 2, ArrivalNanos: now},
		AppendTaskArrive, DecodeTaskArrive)
	benchPayload(b, "Accept",
		Accept{Task: 17, Job: 4211, Ok: true, Placement: benchPlacement, ArrivalNanos: now, Epoch: 3},
		AppendAccept, DecodeAccept)
	benchPayload(b, "Trigger",
		Trigger{Task: 17, Job: 4211, Stage: 1, Placement: benchPlacement, ArrivalNanos: now},
		AppendTrigger, DecodeTrigger)
	benchPayload(b, "IdleReset",
		IdleReset{Proc: 2, Entries: benchEntries},
		AppendIdleReset, DecodeIdleReset)
}
