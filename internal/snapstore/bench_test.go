package snapstore_test

import (
	"testing"

	"meecc/internal/snapstore"
)

func BenchmarkSnapshotEncode(b *testing.B) {
	snap, _, _ := buildSnapshot(b, 9, "")
	blob, err := snapstore.EncodeSnapshot(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapstore.EncodeSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob))/1024, "blobKB")
}

func BenchmarkSnapshotDecode(b *testing.B) {
	snap, _, _ := buildSnapshot(b, 9, "")
	blob, err := snapstore.EncodeSnapshot(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapstore.DecodeSnapshot(blob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob))/1024, "blobKB")
}
