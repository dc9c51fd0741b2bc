package snapstore_test

import (
	"reflect"
	"testing"

	"meecc/internal/snapstore"
)

// FuzzSnapshotCodec feeds mutated snapshot blobs to the decoder. The
// invariants: decoding never panics, damaged bytes come back as errors (the
// checksum trailer catches silent corruption), and anything that does decode
// is self-consistent — re-encoding it reproduces the same state, so a
// "successful" decode can never be a silently wrong machine.
func FuzzSnapshotCodec(f *testing.F) {
	snap, _, _ := buildSnapshot(f, 5, "")
	blob, err := snapstore.EncodeSnapshot(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte{})
	f.Add([]byte("MEECSNP\x00garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := snapstore.DecodeSnapshot(data)
		if err != nil {
			return // rejected, as damaged input should be
		}
		blob2, err := snapstore.EncodeSnapshot(dec)
		if err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		dec2, err := snapstore.DecodeSnapshot(blob2)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if !reflect.DeepEqual(dec.ExportState(), dec2.ExportState()) {
			t.Fatal("decode/encode/decode is not a fixed point")
		}
	})
}
