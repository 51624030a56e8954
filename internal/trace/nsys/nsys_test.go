package nsys

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		NGPUs: 4,
		Comms: map[string][]int{
			"world": {0, 1, 2, 3},
			"pp":    {0, 2},
		},
		Records: []Record{
			{GPU: 0, Stream: 7, Kind: KindKernel, Name: "gemm", StartNs: 0, EndNs: 1000},
			{GPU: 0, Stream: 7, Kind: KindNCCL, Coll: CollAllReduce, Bytes: 1 << 20, Comm: "world", StartNs: 1000, EndNs: 3000},
			{GPU: 1, Stream: 7, Kind: KindNCCL, Coll: CollAllReduce, Bytes: 1 << 20, Comm: "world", StartNs: 900, EndNs: 3100},
			{GPU: 2, Stream: 7, Kind: KindNCCL, Coll: CollAllReduce, Bytes: 1 << 20, Comm: "world", StartNs: 950, EndNs: 3000},
			{GPU: 3, Stream: 7, Kind: KindNCCL, Coll: CollAllReduce, Bytes: 1 << 20, Comm: "world", StartNs: 1100, EndNs: 3050},
			{GPU: 0, Stream: 9, Kind: KindNCCL, Coll: CollSend, Bytes: 4096, Comm: "pp", Peer: 1, StartNs: 500, EndNs: 600},
			{GPU: 2, Stream: 9, Kind: KindNCCL, Coll: CollRecv, Bytes: 4096, Comm: "pp", Peer: 0, StartNs: 500, EndNs: 700},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleReport().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	r := sampleReport()
	r.Records[0].GPU = 99
	if r.Validate() == nil {
		t.Fatal("bad GPU accepted")
	}
	r = sampleReport()
	r.Records[1].Comm = "nosuch"
	if r.Validate() == nil {
		t.Fatal("unknown comm accepted")
	}
	r = sampleReport()
	r.Records[1].Coll = "frobnicate"
	if r.Validate() == nil {
		t.Fatal("unknown collective accepted")
	}
	r = sampleReport()
	r.Records[5].Peer = 9
	if r.Validate() == nil {
		t.Fatal("bad peer accepted")
	}
	r = sampleReport()
	r.Records[1].Coll = CollBroadcast
	r.Records[1].Root = 4 // "world" has 4 members
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "record 1: root 4") {
		t.Fatalf("out-of-range root accepted or not named: %v", err)
	}
	r = sampleReport()
	r.Records[1].Root = -1
	if r.Validate() == nil {
		t.Fatal("negative root accepted")
	}
	r = sampleReport()
	r.Records[0].EndNs = -5
	if r.Validate() == nil {
		t.Fatal("end<start accepted")
	}
	r = sampleReport()
	r.Comms["bad"] = []int{0, 0}
	if r.Validate() == nil {
		t.Fatal("duplicate comm member accepted")
	}
	r = sampleReport()
	// nccl record on a GPU outside its communicator
	r.Records[5].GPU = 1
	if r.Validate() == nil {
		t.Fatal("non-member nccl record accepted")
	}
}

func TestStreamHelpers(t *testing.T) {
	r := sampleReport()
	// a second GPU-0 stream-7 kernel, traced out of order and starting
	// with the allreduce: it must sort after it (stable on equal starts)
	r.Records = append(r.Records, Record{GPU: 0, Stream: 7, Kind: KindKernel, Name: "late", StartNs: 1000, EndNs: 1200})
	streams := r.ByStream()
	type lane struct{ gpu, id int }
	var lanes []lane
	for _, s := range streams {
		lanes = append(lanes, lane{s.GPU, s.ID})
	}
	want := []lane{{0, 7}, {0, 9}, {1, 7}, {2, 7}, {2, 9}, {3, 7}}
	if !reflect.DeepEqual(lanes, want) {
		t.Fatalf("ByStream lanes = %v, want %v", lanes, want)
	}
	recs := streams[0].Records
	if len(recs) != 3 || recs[0] != 0 || recs[1] != 1 || recs[2] != 7 {
		t.Fatalf("ByStream (0,7) records = %v, want [0 1 7]", recs)
	}
	total := 0
	for _, s := range streams {
		total += len(s.Records)
		for i := 1; i < len(s.Records); i++ {
			if r.Records[s.Records[i-1]].StartNs > r.Records[s.Records[i]].StartNs {
				t.Fatalf("stream (%d,%d) not in start order: %v", s.GPU, s.ID, s.Records)
			}
		}
	}
	if total != len(r.Records) {
		t.Fatalf("ByStream covers %d of %d records", total, len(r.Records))
	}
	if got := (&Report{NGPUs: 1}).ByStream(); len(got) != 0 {
		t.Fatalf("empty report has streams %v", got)
	}
}

func TestRoundTrip(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	n, err := r.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo returned %d, buffer has %d", n, buf.Len())
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NGPUs != r.NGPUs || !reflect.DeepEqual(got.Comms, r.Comms) || !reflect.DeepEqual(got.Records, r.Records) {
		t.Fatal("round trip mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Parse(strings.NewReader(`{"format":"other","ngpus":1}`)); err == nil {
		t.Fatal("wrong format accepted")
	}
	if _, err := Parse(strings.NewReader(`{"format":"atlahs-nsys-v1","ngpus":1}` + "\nnot json")); err == nil {
		t.Fatal("garbage record accepted")
	}
}
