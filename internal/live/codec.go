package live

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/sched"
)

// The payload codec: one fixed layout per event payload type, written by a
// typed Append function and read back by a typed Decode function. Every
// event on the per-job path goes through it, so it is fixed-cost (no
// reflection, no type descriptors on the wire) and allocates only what the
// decoded value keeps: one buffer per encode, and per decode one backing
// array per slice and one copy per non-empty string. Tasks travel as their
// sched.TaskRef, so the only string left on the wire is a Heartbeat's node
// name.
//
// Wire primitives:
//
//	tag     1 byte, the payload type (tagTaskArrive … tagDone)
//	int     zig-zag varint (encoding/binary's Varint), minimal length only;
//	        a task ref is an int in [0, 2^31)
//	bool    1 byte, 0 or 1
//	float   8 bytes, IEEE 754 bits, little endian
//	string  uvarint byte length, then the bytes
//	slice   uvarint element count, then the elements; a count of zero
//	        decodes as a nil slice
//
// Decoding is strict: every read is bounds-checked, a slice count is checked
// against the bytes remaining before anything is allocated, and a wrong tag,
// an over-long varint, a bool other than 0 or 1 and bytes after the last
// field are all errors. So each value has exactly one encoding, and whatever
// decodes re-encodes to the same bytes. Every failure wraps ErrPayload.
//
// DESIGN.md ("Payload codec") has the per-type field order.

// Payload type tags: the first byte of every encoded payload.
const (
	tagTaskArrive byte = iota + 1
	tagAccept
	tagTrigger
	tagIdleReset
	tagComplete
	tagHeartbeat
	_ // 7 is retired (it tagged the replication record): no decoder takes it
	tagDone
)

// Smallest encodings of the slice element types; reader.count divides the
// bytes remaining by them to bound a count before allocating.
const (
	minPlacedStage = 1 + 1 + 8     // Stage, Proc, Util
	minEntry       = 1 + 1 + 1 + 1 // Task, Job, Stage, Proc
)

// Upper bounds on encoded field sizes, for sizing the buffer once.
const (
	maxInt         = binary.MaxVarintLen64
	maxPlacedStage = 2*maxInt + 8
)

func maxString(s string) int { return maxInt + len(s) }

// AppendTaskArrive appends the encoding of v to dst.
//
//rtmw:noalloc
func AppendTaskArrive(dst []byte, v *TaskArrive) []byte {
	dst = slices.Grow(dst, 1+4*maxInt)
	dst = append(dst, tagTaskArrive)
	dst = appendJob(dst, v.Task, v.Job)
	dst = binary.AppendVarint(dst, int64(v.Proc))
	return binary.AppendVarint(dst, v.ArrivalNanos)
}

// DecodeTaskArrive decodes a payload written by AppendTaskArrive.
func DecodeTaskArrive(b []byte) (TaskArrive, error) {
	r := open(b, tagTaskArrive)
	return finish(&r, "TaskArrive", TaskArrive{
		Task:         r.ref(),
		Job:          r.varint(),
		Proc:         r.int(),
		ArrivalNanos: r.varint(),
	})
}

// AppendAccept appends the encoding of v to dst. Task and Job lead, so a
// task effector can tell whose decision it is from the header (acceptTask).
//
//rtmw:noalloc
func AppendAccept(dst []byte, v *Accept) []byte {
	dst = slices.Grow(dst, 1+5*maxInt+2+len(v.Placement)*maxPlacedStage)
	dst = append(dst, tagAccept)
	dst = appendJob(dst, v.Task, v.Job)
	dst = appendBool(dst, v.Ok)
	dst = appendBool(dst, v.PerTaskDecision)
	dst = binary.AppendVarint(dst, v.ArrivalNanos)
	dst = binary.AppendVarint(dst, v.Epoch)
	return appendPlacement(dst, v.Placement)
}

// DecodeAccept decodes a payload written by AppendAccept.
func DecodeAccept(b []byte) (Accept, error) {
	r := open(b, tagAccept)
	return finish(&r, "Accept", Accept{
		Task:            r.ref(),
		Job:             r.varint(),
		Ok:              r.bool(),
		PerTaskDecision: r.bool(),
		ArrivalNanos:    r.varint(),
		Epoch:           r.varint(),
		Placement:       r.placement(),
	})
}

// acceptTask returns the Task field of an Accept payload, reading only the
// header: the task effectors that do not own the task drop the event
// without decoding (or allocating) the rest.
func acceptTask(b []byte) (sched.TaskRef, bool) {
	r := open(b, tagAccept)
	task := r.ref()
	return task, r.why == ""
}

// AppendTrigger appends the encoding of v to dst. Task, Job and Stage lead
// and Placement follows directly, so a subtask can tell whether the event is
// addressed to it without materialising anything (triggerAddressedTo).
//
//rtmw:noalloc
func AppendTrigger(dst []byte, v *Trigger) []byte {
	dst = slices.Grow(dst, 1+5*maxInt+len(v.Placement)*maxPlacedStage)
	dst = append(dst, tagTrigger)
	dst = appendJob(dst, v.Task, v.Job)
	dst = binary.AppendVarint(dst, int64(v.Stage))
	dst = appendPlacement(dst, v.Placement)
	return binary.AppendVarint(dst, v.ArrivalNanos)
}

// DecodeTrigger decodes a payload written by AppendTrigger.
func DecodeTrigger(b []byte) (Trigger, error) {
	r := open(b, tagTrigger)
	return finish(&r, "Trigger", Trigger{
		Task:         r.ref(),
		Job:          r.varint(),
		Stage:        r.int(),
		Placement:    r.placement(),
		ArrivalNanos: r.varint(),
	})
}

// triggerAddressedTo reports whether b is a Trigger for (task, stage) whose
// placement runs that stage on proc — the subtask components' filter. It
// walks the encoded header and placement in place and allocates nothing;
// only the one instance it selects goes on to DecodeTrigger, which also
// validates the bytes this walk does not reach.
func triggerAddressedTo(b []byte, task sched.TaskRef, stage, proc int) bool {
	r := open(b, tagTrigger)
	if r.ref() != task {
		return false
	}
	r.varint() // Job
	if r.int() != stage || stage < 0 {
		return false
	}
	if stage >= r.count(minPlacedStage) {
		return false
	}
	for i := 0; i < stage; i++ {
		r.int()
		r.int()
		r.float()
	}
	r.int() // PlacedStage.Stage
	return r.int() == proc && r.why == ""
}

// AppendIdleReset appends the encoding of v to dst.
//
//rtmw:noalloc
func AppendIdleReset(dst []byte, v *IdleReset) []byte {
	dst = slices.Grow(dst, 2*maxInt+4*maxInt*len(v.Entries))
	dst = append(dst, tagIdleReset)
	dst = binary.AppendVarint(dst, int64(v.Proc))
	return appendEntries(dst, v.Entries)
}

// DecodeIdleReset decodes a payload written by AppendIdleReset.
func DecodeIdleReset(b []byte) (IdleReset, error) {
	r := open(b, tagIdleReset)
	return finish(&r, "IdleReset", IdleReset{
		Proc:    r.int(),
		Entries: r.entries(),
	})
}

// AppendComplete appends the encoding of v to dst.
//
//rtmw:noalloc
func AppendComplete(dst []byte, v *Complete) []byte {
	dst = slices.Grow(dst, 1+5*maxInt)
	dst = append(dst, tagComplete)
	dst = appendJob(dst, v.Ref.Task, v.Ref.Job)
	dst = binary.AppendVarint(dst, int64(v.Stage))
	dst = binary.AppendVarint(dst, int64(v.Kind))
	return binary.AppendVarint(dst, v.DeadlineNanos)
}

// DecodeComplete decodes a payload written by AppendComplete.
func DecodeComplete(b []byte) (Complete, error) {
	r := open(b, tagComplete)
	return finish(&r, "Complete", Complete{
		Ref:           r.jobKey(),
		Stage:         r.int(),
		Kind:          sched.TaskKind(r.int()),
		DeadlineNanos: r.varint(),
	})
}

// AppendHeartbeat appends the encoding of v to dst.
//
//rtmw:noalloc
func AppendHeartbeat(dst []byte, v *Heartbeat) []byte {
	dst = slices.Grow(dst, 1+maxString(v.Node)+3*maxInt)
	dst = append(dst, tagHeartbeat)
	dst = appendString(dst, v.Node)
	dst = binary.AppendVarint(dst, int64(v.Proc))
	dst = binary.AppendVarint(dst, v.Seq)
	return binary.AppendVarint(dst, v.SentNanos)
}

// DecodeHeartbeat decodes a payload written by AppendHeartbeat.
func DecodeHeartbeat(b []byte) (Heartbeat, error) {
	r := open(b, tagHeartbeat)
	return finish(&r, "Heartbeat", Heartbeat{
		Node:      r.str(),
		Proc:      r.int(),
		Seq:       r.varint(),
		SentNanos: r.varint(),
	})
}

// AppendDone appends the encoding of v to dst.
//
//rtmw:noalloc
func AppendDone(dst []byte, v *Done) []byte {
	dst = slices.Grow(dst, 1+4*maxInt)
	dst = append(dst, tagDone)
	dst = appendJob(dst, v.Task, v.Job)
	dst = binary.AppendVarint(dst, v.ArrivalNanos)
	return binary.AppendVarint(dst, v.DoneNanos)
}

// DecodeDone decodes a payload written by AppendDone.
func DecodeDone(b []byte) (Done, error) {
	r := open(b, tagDone)
	return finish(&r, "Done", Done{
		Task:         r.ref(),
		Job:          r.varint(),
		ArrivalNanos: r.varint(),
		DoneNanos:    r.varint(),
	})
}

//rtmw:noalloc
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

//rtmw:noalloc
func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

//rtmw:noalloc
func appendJob(dst []byte, task sched.TaskRef, job int64) []byte {
	dst = binary.AppendVarint(dst, int64(task))
	return binary.AppendVarint(dst, job)
}

//rtmw:noalloc
func appendPlacement(dst []byte, placement []sched.PlacedStage) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(placement)))
	for i := range placement {
		p := &placement[i]
		dst = binary.AppendVarint(dst, int64(p.Stage))
		dst = binary.AppendVarint(dst, int64(p.Proc))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Util))
	}
	return dst
}

//rtmw:noalloc
func appendEntries(dst []byte, entries []sched.Entry[sched.JobKey]) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		dst = appendJob(dst, e.Ref.Task, e.Ref.Job)
		dst = binary.AppendVarint(dst, int64(e.Stage))
		dst = binary.AppendVarint(dst, int64(e.Proc))
	}
	return dst
}

// reader consumes one payload front to back. The first failure sticks: it
// records why, empties the input so every later read fails fast and returns
// a zero value, and finish turns it into the error. That lets a decoder be
// one composite literal of reads in field order.
type reader struct {
	b   []byte
	why string // the first failure; empty while the payload is well formed
}

// open starts reading b, which must begin with the tag byte.
func open(b []byte, tag byte) reader {
	r := reader{b: b}
	if r.byte() != tag {
		r.fail("wrong type tag")
	}
	return r
}

// finish closes a decode: v if the reader consumed exactly the whole payload
// without failing, otherwise the zero value and an error wrapping ErrPayload.
func finish[T any](r *reader, name string, v T) (T, error) {
	if r.why == "" && len(r.b) != 0 {
		r.fail("trailing bytes")
	}
	if r.why != "" {
		var zero T
		return zero, fmt.Errorf("live: decode %s: %s: %w", name, r.why, ErrPayload)
	}
	return v, nil
}

func (r *reader) fail(why string) {
	if r.why == "" {
		r.why = why
	}
	r.b = nil
}

func (r *reader) byte() byte {
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *reader) bool() bool {
	c := r.byte()
	if c > 1 {
		r.fail("bool is neither 0 nor 1")
	}
	return c == 1
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail("truncated")
		return 0
	case n < 0:
		r.fail("varint overflows 64 bits")
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.fail("varint is not minimal")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varint undoes the zig-zag mapping, as binary.Varint does.
func (r *reader) varint() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *reader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail("integer overflows int")
		return 0
	}
	return int(v)
}

func (r *reader) float() float64 {
	if len(r.b) < 8 {
		r.fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// view returns a length-prefixed field as a slice of the payload.
func (r *reader) view() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("length exceeds payload")
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) str() string { return string(r.view()) }

// count reads a slice length and rejects it unless that many elements of at
// least minElem bytes each still fit in the payload, so a hostile count can
// never size an allocation beyond a small multiple of the input.
func (r *reader) count(minElem int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minElem) {
		r.fail("count exceeds payload")
		return 0
	}
	return int(n)
}

// ref reads a task ref: refs are never negative and fit in 32 bits.
func (r *reader) ref() sched.TaskRef {
	v := r.varint()
	if v < 0 || int64(sched.TaskRef(v)) != v {
		r.fail("task ref out of range")
		return 0
	}
	return sched.TaskRef(v)
}

func (r *reader) jobKey() sched.JobKey {
	return sched.JobKey{Task: r.ref(), Job: r.varint()}
}

func (r *reader) placement() []sched.PlacedStage {
	n := r.count(minPlacedStage)
	if n == 0 {
		return nil
	}
	out := make([]sched.PlacedStage, n)
	for i := range out {
		out[i] = sched.PlacedStage{Stage: r.int(), Proc: r.int(), Util: r.float()}
	}
	return out
}

func (r *reader) entries() []sched.Entry[sched.JobKey] {
	n := r.count(minEntry)
	if n == 0 {
		return nil
	}
	out := make([]sched.Entry[sched.JobKey], n)
	for i := range out {
		out[i] = sched.Entry[sched.JobKey]{Ref: r.jobKey(), Stage: r.int(), Proc: r.int()}
	}
	return out
}
