package snapstore_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
	"meecc/internal/snapstore"
)

// meePolicies is "" (the default machine) followed by every MEE replacement
// policy by name.
var meePolicies = []string{"", "lru", "fifo", "tree-plru", "bit-plru", "random", "nru", "srrip"}

// buildSnapshot boots a platform, warms it through an enclave thread (MEE
// cache fills, integrity-tree materialization, CPU cache state, COW pages),
// and snapshots at quiescence, returning the snapshot plus the thread state
// and clock needed to resume work on a fork. policy "" boots the default
// machine; a named policy also halves the MEE cache to 4 ways (the
// mitigation study's half-ways organization), which the warm-up overflows,
// so its victims — and the randomized policies' draws — are part of what the
// codec must carry.
func buildSnapshot(tb testing.TB, seed uint64, policy string) (*platform.Snapshot, platform.ThreadState, sim.Cycles) {
	tb.Helper()
	cfg := platform.DefaultConfig(seed)
	if policy != "" {
		cfg.MEE.Policy = policy
		cfg.MEE.CacheWays = 4
	}
	p := platform.New(cfg)
	pr := p.NewProcess("victim")
	e, err := pr.CreateEnclave(64)
	if err != nil {
		tb.Fatal(err)
	}
	var st platform.ThreadState
	var end sim.Cycles
	p.SpawnThread("warm", pr, 0, func(th *platform.Thread) {
		th.EnterEnclave()
		for i := 0; i < 512; i++ {
			va := e.Base + enclave.VAddr((i*64)%int(e.Size()))
			if i%3 == 0 {
				th.WriteU64(va, uint64(i))
			} else {
				th.Access(va)
			}
		}
		st = th.State()
		end = th.Now()
	})
	p.Run(-1)
	return p.Snapshot(), st, end
}

// traceFork resumes the warmed thread on a fork of snap and records the full
// timing/level/MEE-hit stream of a deterministic probe pattern.
func traceFork(tb testing.TB, snap *platform.Snapshot, st platform.ThreadState, start sim.Cycles) []platform.AccessResult {
	tb.Helper()
	plat := snap.Fork()
	pr := plat.Procs()[0]
	e := pr.Enclave()
	var out []platform.AccessResult
	plat.ResumeThread("probe", pr, start, st, func(th *platform.Thread) {
		for i := 0; i < 768; i++ {
			va := e.Base + enclave.VAddr((i*64*7)%int(e.Size()))
			if i%5 == 0 {
				th.Flush(va)
			}
			out = append(out, th.Access(va))
		}
	})
	plat.Run(-1)
	return out
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	for _, policy := range meePolicies {
		snap, _, _ := buildSnapshot(t, 7, policy)
		blob, err := snapstore.EncodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := snapstore.DecodeSnapshot(blob)
		if err != nil {
			t.Fatalf("policy %q: %v", policy, err)
		}
		// The full exported state must survive the round trip bit-for-bit.
		want, got := snap.ExportState(), dec.ExportState()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("policy %q: decoded snapshot state differs from original", policy)
		}
		// And the codec itself must be deterministic: encoding the decoded
		// snapshot reproduces the original blob byte-for-byte.
		blob2, err := snapstore.EncodeSnapshot(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("policy %q: re-encoding a decoded snapshot changed the blob (%d vs %d bytes)", policy, len(blob), len(blob2))
		}
	}
}

// TestDecodedForkMatchesInMemoryFork is the determinism proof for the wire
// format: under every MEE policy, a fork of decode(encode(snapshot))
// produces exactly the timing stream a fork of the in-memory snapshot does.
func TestDecodedForkMatchesInMemoryFork(t *testing.T) {
	for _, policy := range meePolicies {
		for _, seed := range []uint64{3, 17} {
			snap, st, end := buildSnapshot(t, seed, policy)
			blob, err := snapstore.EncodeSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := snapstore.DecodeSnapshot(blob)
			if err != nil {
				t.Fatal(err)
			}
			mem := traceFork(t, snap, st, end)
			disk := traceFork(t, dec, st, end)
			if !reflect.DeepEqual(mem, disk) {
				t.Fatalf("policy %q seed %d: decoded fork diverged from in-memory fork", policy, seed)
			}
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	snap, _, _ := buildSnapshot(t, 11, "")
	blob, err := snapstore.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at assorted depths.
	for _, n := range []int{0, 1, 7, 8, 55, len(blob) / 2, len(blob) - 1} {
		if _, err := snapstore.DecodeSnapshot(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	// Bit flips across the blob, including the framing and the trailer.
	for _, pos := range []int{0, 9, 20, len(blob) / 3, len(blob) / 2, len(blob) - 1} {
		dam := append([]byte(nil), blob...)
		dam[pos] ^= 0x40
		if _, err := snapstore.DecodeSnapshot(dam); err == nil {
			t.Fatalf("bit flip at %d decoded without error", pos)
		}
	}
	// Wrong kind: a warm-state seal must not decode as a snapshot.
	payload, err := snapstore.Unseal(snapstore.KindSnapshot, blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapstore.DecodeSnapshot(snapstore.Seal(snapstore.KindWarm, payload)); err == nil {
		t.Fatal("wrong-kind blob decoded without error")
	}
}

// resealAs rewrites a sealed blob's format version and recomputes its
// checksum trailer, producing the blob a writer of that version would have
// sealed around the same payload.
func resealAs(blob []byte, version uint32) []byte {
	body := append([]byte(nil), blob[:len(blob)-sha256.Size]...)
	binary.LittleEndian.PutUint32(body[len("MEECSNP\x00"):], version)
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// TestDecodeRejectsOldVersion pins the version bump: a blob sealed by the
// Version 1 writer (per-set replacement vectors and a separate MEE policy
// string) is refused outright rather than misread.
func TestDecodeRejectsOldVersion(t *testing.T) {
	snap, _, _ := buildSnapshot(t, 13, "")
	blob, err := snapstore.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapstore.DecodeSnapshot(resealAs(blob, snapstore.Version)); err != nil {
		t.Fatalf("resealing at the current version broke the blob: %v", err)
	}
	_, err = snapstore.DecodeSnapshot(resealAs(blob, 1))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version 1 blob: err %v, want an unsupported-version error", err)
	}
}
