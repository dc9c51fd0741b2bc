package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"meecc/internal/sim"
	"meecc/internal/snapstore"
)

// TestWarmStateDiskRoundTrip is the warm-tier determinism proof: a warm
// state decoded from its sealed blob runs transmissions DeepEqual to the
// in-memory original's, for several transmit configs off one warm phase.
func TestWarmStateDiskRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	base := DefaultChannelConfig(4)
	ws, err := WarmChannel(base)
	if err != nil {
		t.Fatalf("WarmChannel: %v", err)
	}
	blob, err := ws.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := DecodeWarmState(blob)
	if err != nil {
		t.Fatalf("DecodeWarmState: %v", err)
	}
	for _, tc := range []struct {
		window sim.Cycles
		bits   []byte
	}{
		{15000, AlternatingBits(16)},
		{7500, PatternBits("110", 16)},
	} {
		cfg := base
		cfg.Window = tc.window
		cfg.Bits = tc.bits
		mem, memErr := ws.Run(cfg)
		disk, diskErr := dec.Run(cfg)
		if (memErr == nil) != (diskErr == nil) {
			t.Fatalf("window %d: mem err %v, disk err %v", tc.window, memErr, diskErr)
		}
		if !reflect.DeepEqual(mem, disk) {
			t.Errorf("window %d: decoded warm state diverged from in-memory state", tc.window)
		}
	}
	// Damage is rejected, not misdecoded.
	blob[len(blob)/2] ^= 1
	if _, err := DecodeWarmState(blob); err == nil {
		t.Fatal("bit-flipped warm blob decoded without error")
	}
	// Incompatible configs are still rejected after the round trip.
	cfg := base
	cfg.Options.Seed++
	if _, err := dec.Run(cfg); err == nil {
		t.Fatal("decoded warm state accepted an incompatible config")
	}
}

// TestWarmCacheSpillSingleflight pins the spill/re-warm race: while an
// evicted entry's disk spill is still in flight, a miss on the same key must
// adopt the in-flight entry — not recompute the warm phase (the entry is
// gone from the memory tier and not yet in the disk tier).
func TestWarmCacheSpillSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	store, err := snapstore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewWarmCache(1)
	c.AttachStore(store)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	c.testSpillDelay = func() {
		// Only the first spill (A's) parks; later spills pass through.
		first := false
		once.Do(func() { first = true; close(entered) })
		if first {
			<-release
		}
	}

	cfgA, cfgB := DefaultChannelConfig(5), DefaultChannelConfig(6)
	cfgA.Bits = AlternatingBits(4)
	cfgB.Bits = AlternatingBits(4)

	wsA, err := c.Warm(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Evicts A; its spill parks in testSpillDelay before touching the
		// store, then B's own warm phase runs.
		_, err := c.Warm(cfgB)
		done <- err
	}()
	<-entered

	// A is in neither tier right now. Without the in-flight index this
	// recomputes the warm phase; with it, Warm hands back the same entry.
	wsA2, err := c.Warm(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if wsA2 != wsA {
		t.Error("re-warm during in-flight spill did not adopt the evicted entry")
	}
	if st := c.Stats(); st.Computes != 1 || st.DiskLoads != 0 {
		t.Errorf("during spill: %+v, want 1 compute and 0 disk loads", st)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Computes != 2 || st.DiskLoads != 0 {
		t.Errorf("after release: %+v, want 2 computes and 0 disk loads", st)
	}
}

// TestWarmCacheDiskTier exercises the spill/fault-in path: with capacity 1
// and a store attached, warming a second key evicts the first to disk, and
// re-warming the first is served from disk — no recompute — with results
// equal to the originals.
func TestWarmCacheDiskTier(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	store, err := snapstore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewWarmCache(1)
	c.AttachStore(store)

	cfgA, cfgB := DefaultChannelConfig(5), DefaultChannelConfig(6)
	cfgA.Bits = AlternatingBits(8)
	cfgB.Bits = AlternatingBits(8)

	wsA, err := c.Warm(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	refA, err := wsA.Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Warm(cfgB); err != nil { // evicts A, spilling it
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskSpills != 1 {
		t.Fatalf("after eviction: %+v, want 1 spill", st)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d blobs, want 1", store.Len())
	}

	wsA2, err := c.Warm(cfgA) // evicts B, faults A back from disk
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Computes != 2 || st.DiskLoads != 1 {
		t.Fatalf("after fault-in: %+v, want 2 computes and 1 disk load", st)
	}
	gotA, err := wsA2.Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refA, gotA) {
		t.Fatal("disk-tier warm state diverged from original")
	}
}

// TestWarmCacheRecomputesOldVersionBlob pins the disk tier's handling of a
// wire-format bump: a warm state spilled by a Version 1 writer is rejected
// by DecodeWarmState, and WarmCache recomputes the warm phase instead of
// failing the caller.
func TestWarmCacheRecomputesOldVersionBlob(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	cfg := DefaultChannelConfig(8)
	cfg.Bits = AlternatingBits(8)
	ws, err := WarmChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ws.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Reseal the payload as the Version 1 writer would have.
	body := append([]byte(nil), blob[:len(blob)-sha256.Size]...)
	binary.LittleEndian.PutUint32(body[len("MEECSNP\x00"):], 1)
	sum := sha256.Sum256(body)
	old := append(body, sum[:]...)
	if _, err := DecodeWarmState(old); err == nil {
		t.Fatal("version 1 warm blob decoded without error")
	}

	store, err := snapstore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	keyed := cfg
	keyed.applyDefaults()
	if err := store.Put(diskKey(warmKey(keyed)), old); err != nil {
		t.Fatal(err)
	}
	c := NewWarmCache(1)
	c.AttachStore(store)
	got, err := c.Warm(cfg)
	if err != nil {
		t.Fatalf("Warm over a version 1 blob: %v", err)
	}
	if st := c.Stats(); st.Computes != 1 || st.DiskLoads != 0 {
		t.Fatalf("stats %+v, want 1 compute and 0 disk loads", st)
	}
	want, err := ws.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := got.Run(cfg); err != nil || !reflect.DeepEqual(res, want) {
		t.Fatalf("recomputed warm state diverged (err %v)", err)
	}
}

// TestWarmSnapshotWireGolden pins the Version 2 snapshot wire bytes of a
// fixed-seed warm channel state by digest. How the simulator stores its
// state in memory (flat slabs, copy-on-write set pages, ...) must not move
// a byte: warm-tier blobs already on disk stay valid only while a decoded
// machine re-encodes identically. A deliberate format change bumps
// snapstore.Version and re-records the digest.
func TestWarmSnapshotWireGolden(t *testing.T) {
	const wantDigest = "67e17051139e8bf11b0b707d83ffe271e49f6cc69d7f6901b7ec66c32ad848d5"
	if snapstore.Version != 2 {
		t.Fatalf("snapstore.Version = %d; the golden digest pins Version 2", snapstore.Version)
	}
	ws, err := WarmChannel(DefaultChannelConfig(1))
	if err != nil {
		t.Fatalf("WarmChannel: %v", err)
	}
	blob, err := snapstore.EncodeSnapshot(ws.snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != wantDigest {
		t.Fatalf("warm snapshot wire digest %s (%d bytes), want %s", got, len(blob), wantDigest)
	}
}
