package platform

import (
	"reflect"
	"testing"

	"meecc/internal/enclave"
	"meecc/internal/sim"
)

// fuzzOps decodes the fuzz payload into a bounded op script: each byte is
// one enclave memory operation (read, write, or flush+read) at a derived
// page/line offset. The same script always replays the same stream.
type fuzzOp struct {
	kind byte // 0 = read, 1 = write, 2 = flush then read
	off  enclave.VAddr
}

func decodeFuzzOps(data []byte, max int, size enclave.VAddr) []fuzzOp {
	if len(data) > max {
		data = data[:max]
	}
	ops := make([]fuzzOp, len(data))
	for i, b := range data {
		// Spread accesses line-granular across the enclave so scripts hit
		// page-table, MEE-tree, and cache-set variety.
		off := (enclave.VAddr(b) * 64 * 131) % size
		ops[i] = fuzzOp{kind: b % 3, off: off &^ 7}
	}
	return ops
}

func playFuzzOps(th *Thread, base enclave.VAddr, ops []fuzzOp) []AccessResult {
	out := make([]AccessResult, 0, len(ops))
	for i, op := range ops {
		va := base + op.off
		switch op.kind {
		case 1:
			th.WriteU64(va, uint64(i)*0x9e3779b97f4a7c15)
		case 2:
			th.Flush(va)
		}
		out = append(out, th.Access(va))
	}
	return out
}

// meePolicies is every MEE replacement policy the fuzz target selects from.
var meePolicies = []string{"lru", "fifo", "tree-plru", "bit-plru", "random", "nru", "srrip"}

// FuzzForkEquivalence drives random read/write/flush scripts across a
// Snapshot/Fork boundary and asserts the forked platform replays the exact
// HitLevel/latency/MEE stream of a fresh platform that never forked. This
// is the tentpole invariant — forking is behaviorally invisible — probed
// with adversarial access patterns instead of the fixed ones in fork_test,
// under every MEE replacement policy (the randomized ones also prove Fork
// rebinds their victim source to the fork's stream).
func FuzzForkEquivalence(f *testing.F) {
	f.Add(uint64(1), byte(0), []byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint64(42), byte(0), []byte{255, 128, 64, 32}, []byte{9, 9, 9, 9, 9, 9})
	f.Add(uint64(7), byte(0), []byte{}, []byte{1, 2, 3})
	for i := range meePolicies {
		f.Add(uint64(i+3), byte(i)|0x80, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, []byte{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	}
	f.Fuzz(func(t *testing.T, seed uint64, policy byte, warmBytes, probeBytes []byte) {
		seed %= 1 << 20 // keep configs in a sane, fast regime
		// The low bits of policy pick the MEE replacement policy. The top
		// bit halves the MEE cache to 4 ways (the mitigation study's
		// half-ways organization): the scripts never fill the default
		// 8-way sets, but they do overflow these, so victims — and the
		// randomized policies' draws — actually occur.
		cfg := DefaultConfig(seed)
		cfg.MEE.Policy = meePolicies[int(policy&0x7f)%len(meePolicies)]
		if policy&0x80 != 0 {
			cfg.MEE.CacheWays = 4
		}

		boot := func() (*Platform, *Process, *enclave.Enclave) {
			p := New(cfg)
			pr := p.NewProcess("fuzz")
			e, err := pr.CreateEnclave(32)
			if err != nil {
				t.Fatal(err)
			}
			return p, pr, e
		}
		_, _, e0 := boot()
		size := enclave.VAddr(e0.Size())
		warmOps := decodeFuzzOps(warmBytes, 192, size)
		probeOps := decodeFuzzOps(probeBytes, 192, size)

		// warm runs the shared prefix on a platform and returns the saved
		// resume point.
		warm := func(p *Platform, pr *Process, e *enclave.Enclave) (ThreadState, sim.Cycles) {
			var st ThreadState
			var end sim.Cycles
			p.SpawnThread("warm", pr, 0, func(th *Thread) {
				th.EnterEnclave()
				playFuzzOps(th, e.Base, warmOps)
				st, end = th.State(), th.Now()
			})
			p.Run(-1)
			return st, end
		}
		probe := func(p *Platform, st ThreadState, start sim.Cycles) []AccessResult {
			pr := p.Procs()[0]
			e := pr.Enclave()
			var out []AccessResult
			p.ResumeThread("probe", pr, start, st, func(th *Thread) {
				out = playFuzzOps(th, e.Base, probeOps)
			})
			p.Run(-1)
			return out
		}

		// Fresh platform: warm then probe, no fork anywhere.
		pf, prf, ef := boot()
		stf, endf := warm(pf, prf, ef)
		want := probe(pf, stf, endf)

		// Forked platform: identical warm, snapshot, probe a fork.
		ps, prs, es := boot()
		sts, ends := warm(ps, prs, es)
		if sts != stf || ends != endf {
			t.Fatalf("warm phase not reproducible: %+v@%d vs %+v@%d", sts, ends, stf, endf)
		}
		snap := ps.Snapshot()
		got := probe(snap.Fork(), sts, ends)
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("op %d diverged: fork %+v, fresh %+v", i, got[i], want[i])
				}
			}
			t.Fatalf("fork stream length %d, fresh %d", len(got), len(want))
		}

		// A second fork of the same snapshot replays the same stream.
		if again := probe(snap.Fork(), sts, ends); !reflect.DeepEqual(again, want) {
			t.Fatal("second fork of the same snapshot diverged")
		}
	})
}
