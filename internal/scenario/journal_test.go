package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// Record a churn scenario on the sim, replay the journal twice: both
// replays must produce byte-identical canonical metrics, and they must
// reproduce the recorded run's counters exactly — the offline
// incident-reproduction guarantee.
func TestRecordReplayBitIdentical(t *testing.T) {
	s := churnSpec()
	h, err := RecordHeader(s, BindingSim, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := NewRecorder(&buf, h)
	orig, err := RunSim(s, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("recorder error: %v", err)
	}

	j, err := DecodeJournal(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if j.Header.Scenario != s.Name || j.Header.Binding != BindingSim {
		t.Fatalf("journal header wrong: %+v", j.Header)
	}
	if len(j.Ops) == 0 || len(j.Events) == 0 {
		t.Fatalf("journal missing content: %d ops, %d events", len(j.Ops), len(j.Events))
	}

	r1, err := Replay(j)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Replay(j)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.MetricsJSON, r2.MetricsJSON) {
		t.Fatal("replays produced different metrics documents")
	}
	if r1.Arrived != orig.Arrived || r1.Released != orig.Released ||
		r1.Completed != orig.Completed || r1.Missed != orig.Missed || r1.Lost != orig.Lost {
		t.Fatalf("replay diverged from recorded run:\nreplay   %+v\noriginal %+v", r1, orig)
	}

	// Re-recording the replayed timeline must yield the identical op list:
	// record → replay → record is a fixed point.
	var buf2 bytes.Buffer
	rec2 := NewRecorder(&buf2, h)
	if _, err := RunSim(s, rec2); err != nil {
		t.Fatal(err)
	}
	j2, err := DecodeJournal(buf2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(j2.Ops) != len(j.Ops) {
		t.Fatalf("re-recorded op count differs: %d vs %d", len(j2.Ops), len(j.Ops))
	}
	for i := range j.Ops {
		a, b := j.Ops[i], j2.Ops[i]
		if a.At != b.At || a.Op != b.Op || len(a.Tasks) != len(b.Tasks) || a.To != b.To {
			t.Fatalf("re-recorded op %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// Malformed journals are rejected with line-positioned errors.
func TestReadJournalRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not jsonl":      "hello\n",
		"unknown type":   `{"type":"frame"}` + "\n",
		"missing header": `{"type":"op","op":{"at":"1s","op":"submit","tasks":["a"]}}` + "\n",
		"wrong format":   `{"type":"header","header":{"format":"other","version":1}}` + "\n",
		"wrong version":  `{"type":"header","header":{"format":"rtmw-scenario-journal","version":9}}` + "\n",
	}
	for name, doc := range cases {
		if _, err := DecodeJournal([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeJournal feeds arbitrary bytes to DecodeJournal. It must not
// panic, and a journal it accepts must survive the recorder: re-encoded line
// by line as Recorder writes it, it decodes to an equal Journal. The seeds
// are a thinned tenant-churn recording (the header, then each line until its
// op or event kind has appeared twice: submits, both injections, admissions,
// completions, rejections, task changes) cut at every line and mid-line.
func FuzzDecodeJournal(f *testing.F) {
	s := checkedIn(f, "tenant-churn.json")
	h, err := RecordHeader(s, BindingSim, 0)
	if err != nil {
		f.Fatal(err)
	}
	var rec bytes.Buffer
	if _, err := RunSim(s, NewRecorder(&rec, h)); err != nil {
		f.Fatal(err)
	}
	var journal []byte
	var cuts []int // where each kept line ends
	seen := make(map[string]int)
	for _, line := range bytes.SplitAfter(rec.Bytes(), []byte("\n")) {
		var l journalLine
		if err := json.Unmarshal(line, &l); err != nil {
			continue
		}
		kind := l.Type
		switch {
		case l.Op != nil:
			kind += "/" + l.Op.Op
		case l.Event != nil:
			kind += "/" + l.Event.Kind
		}
		if seen[kind]++; seen[kind] > 2 {
			continue
		}
		cuts = append(cuts, len(journal)+len(line)/2, len(journal)+len(line))
		journal = append(journal, line...)
	}
	f.Add(journal)
	for _, n := range cuts[:len(cuts)-1] {
		f.Add(journal[:n])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		j, err := DecodeJournal(b)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		rec := NewRecorder(&buf, j.Header)
		for _, op := range j.Ops {
			rec.Op(op)
		}
		for _, ev := range j.Events {
			rec.write(journalLine{Type: "event", Event: &ev})
		}
		if err := rec.Err(); err != nil {
			t.Fatalf("re-encoding an accepted journal: %v", err)
		}
		again, err := DecodeJournal(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded journal refused: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, j) {
			t.Fatalf("round trip changed the journal:\n got %+v\nwant %+v", again, j)
		}
	})
}
