package platform

import (
	"fmt"

	"meecc/internal/cow"
	"meecc/internal/cpucache"
	"meecc/internal/dram"
	"meecc/internal/enclave"
	"meecc/internal/itree"
	"meecc/internal/mee"
)

// ProcState is the serializable image of one frozen process.
type ProcState struct {
	Name     string
	PID      int
	PT       []enclave.PTE
	HeapNext enclave.VAddr
	EnclNext enclave.VAddr
	Encl     *enclave.Enclave // nil if none
}

// SnapshotState is the stable codec surface for platform snapshots: every
// field a serializer needs to rebuild a Snapshot, as plain data. The machine
// Config is carried with Obs stripped, and Master carries the crypto master
// key, so decode re-derives working keys through the normal NewCrypto path.
type SnapshotState struct {
	Cfg      Config
	Master   [16]byte
	RNGState []byte
	Mem      *dram.SnapshotState
	MEE      *mee.State
	Caches   *cpucache.State
	EPC      *enclave.EPCState
	GenUsed  []uint64
	PRMBase  dram.Addr
	Procs    []ProcState
	NextEID  int
	NextPID  int
}

// ExportState flattens the snapshot for serialization. The image deep-copies
// everything except DRAM page data, which aliases the snapshot's immutable
// copy-on-write pages.
func (s *Snapshot) ExportState() *SnapshotState {
	cfg := s.cfg
	cfg.Obs = nil
	st := &SnapshotState{
		Cfg:      cfg,
		Master:   s.mee.CryptoMaster(),
		RNGState: append([]byte(nil), s.rngState...),
		Mem:      s.mem.ExportState(),
		MEE:      s.mee.ExportState(),
		Caches:   s.caches.ExportState(),
		EPC:      s.epc.ExportState(),
		GenUsed:  s.genUsed.Words(),
		PRMBase:  s.prmBase,
		NextEID:  s.nextEID,
		NextPID:  s.nextPID,
	}
	for _, pr := range s.procs {
		ps := ProcState{
			Name:     pr.name,
			PID:      pr.pid,
			PT:       pr.pt.Entries(),
			HeapNext: pr.heapNext,
			EnclNext: pr.enclNext,
		}
		if pr.encl != nil {
			e := *pr.encl
			ps.Encl = &e
		}
		st.Procs = append(st.Procs, ps)
	}
	return st
}

// SnapshotFromState rebuilds a forkable Snapshot from a serialized image.
// Derived structures — the integrity-tree geometry and the working crypto
// keys — are recomputed from the config and master key rather than trusted
// from the image, and every cross-component invariant the codec cannot
// express (PRM placement, bitmap sizes, cache geometry) is revalidated, so
// a corrupted image yields an error, never a silently inconsistent machine.
func SnapshotFromState(st *SnapshotState) (*Snapshot, error) {
	cfg := st.Cfg
	cfg.Obs = nil
	if cfg.Cores <= 0 || cfg.CPU.Cores != cfg.Cores {
		return nil, fmt.Errorf("platform: config cores %d / cpu cores %d inconsistent", cfg.Cores, cfg.CPU.Cores)
	}
	if cfg.DRAM.Size < cfg.PRMSize || cfg.PRMSize < cfg.EPCSize {
		return nil, fmt.Errorf("platform: region sizes inconsistent (dram %d, prm %d, epc %d)",
			cfg.DRAM.Size, cfg.PRMSize, cfg.EPCSize)
	}
	prmBase := dram.Addr(cfg.DRAM.Size - cfg.PRMSize)
	if prmBase != st.PRMBase {
		return nil, fmt.Errorf("platform: PRM base %#x does not match config-derived %#x", st.PRMBase, prmBase)
	}
	geom, err := itree.NewGeometry(prmBase, cfg.PRMSize, cfg.EPCSize)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	if st.MEE == nil || st.Mem == nil || st.Caches == nil || st.EPC == nil {
		return nil, fmt.Errorf("platform: snapshot image missing a component state")
	}
	if want := genWords(prmBase); len(st.GenUsed) != want {
		return nil, fmt.Errorf("platform: general-frame bitmap %d words, want %d", len(st.GenUsed), want)
	}
	mem, err := dram.SnapshotFromState(st.Mem)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	meeEng, err := mee.EngineFromState(cfg.MEE, geom, itree.NewCrypto(st.Master), st.MEE)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	caches, err := cpucache.HierarchyFromState(cfg.CPU, st.Caches)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	epc, err := enclave.EPCFromState(st.EPC)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	s := &Snapshot{
		cfg:      cfg,
		rngState: append([]byte(nil), st.RNGState...),
		mem:      mem,
		mee:      meeEng,
		caches:   caches,
		epc:      epc,
		genUsed:  cow.NewBits(len(st.GenUsed)),
		prmBase:  prmBase,
		nextEID:  st.NextEID,
		nextPID:  st.NextPID,
	}
	s.genUsed.Load(st.GenUsed)
	s.genUsed = s.genUsed.Freeze()
	for i, ps := range st.Procs {
		pt, err := enclave.PageTableFromEntries(ps.PT)
		if err != nil {
			return nil, fmt.Errorf("platform: proc %d: %w", i, err)
		}
		snap := procSnap{
			name:     ps.Name,
			pid:      ps.PID,
			pt:       pt,
			heapNext: ps.HeapNext,
			enclNext: ps.EnclNext,
		}
		if ps.Encl != nil {
			e := *ps.Encl
			snap.encl = &e
		}
		s.procs = append(s.procs, snap)
	}
	return s, nil
}
