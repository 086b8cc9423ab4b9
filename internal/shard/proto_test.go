package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"mtcmos/internal/simerr"
)

func TestProtoRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	in := &frame{Type: frameResult, Shard: 3, Items: []json.RawMessage{[]byte(`{"a":1}`)},
		Err: toWire(simerr.New(simerr.ErrBudget, "test", "over budget"))}
	if err := fw.write(in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Shard != in.Shard || len(out.Items) != 1 {
		t.Fatalf("frame = %+v", out)
	}
	if err := out.Err.fromWire(); !errors.Is(err, simerr.ErrBudget) {
		t.Fatalf("wire error = %v, want budget kind", err)
	}
	// Unknown wire kinds classify as internal faults.
	if err := (&wireError{Kind: "martian", Msg: "m"}).fromWire(); !errors.Is(err, simerr.ErrInternal) {
		t.Fatalf("unknown kind = %v, want internal", err)
	}
	// Garbage streams are protocol errors, not hangs or EOF.
	if _, err := readFrame(strings.NewReader("\xff\xff\xff\xffgarbage")); err == nil {
		t.Fatal("implausible frame length accepted")
	}
}
