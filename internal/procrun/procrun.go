// Package procrun is the multi-process deployment kit shared by
// cmd/tilerankd and its driver tests: the rendezvous file that tells every
// rank process where its peers listen, the per-rank result fragment a process
// emits, and the merge that reassembles fragments into the one Global and the
// one mpi.Stats a single-process run of the same spec would produce.
//
// The merge is exact, not approximate: each iteration point is owned by
// exactly one rank (the computer-owns rule, Distribution.Loc), so each
// process emits its owned values in global scan order and the driver
// interleaves them back; traffic counters are recorded on the rank that
// performs the send or the receive, so the per-rank rows merge by
// selection and the totals by summation. Differential tests assert the
// result bit-identical to the in-process run.
package procrun

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"tilespace/internal/exec"
	"tilespace/internal/ilin"
	"tilespace/internal/mpi"
)

// Rendezvous is the shared bootstrap file: world size and every rank's
// listen address. The driver pre-allocates the ports, writes this once,
// and passes the path to every tilerankd.
type Rendezvous struct {
	Size  int            `json:"size"`
	Addrs map[int]string `json:"addrs"`
}

// WriteRendezvous atomically persists r (write-temp-then-rename, so a
// booting rank never reads a torn file).
func WriteRendezvous(path string, r *Rendezvous) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(path, data)
}

// ReadRendezvous loads and validates a rendezvous file.
func ReadRendezvous(path string) (*Rendezvous, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Rendezvous
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("procrun: rendezvous %s: %w", path, err)
	}
	if r.Size <= 0 {
		return nil, fmt.Errorf("procrun: rendezvous %s: size %d", path, r.Size)
	}
	for rank := 0; rank < r.Size; rank++ {
		if r.Addrs[rank] == "" {
			return nil, fmt.Errorf("procrun: rendezvous %s: rank %d has no address", path, rank)
		}
	}
	return &r, nil
}

// RankResult is the fragment one rank process contributes: its owned
// values in global scan order, its row of the traffic matrix, and the
// transport counters (reported for observability; never merged into
// Stats).
type RankResult struct {
	Rank    int             `json:"rank"`
	Values  []float64       `json:"values"`
	Traffic mpi.RankTraffic `json:"traffic"`
	Wire    mpi.WireStats   `json:"wire"`
}

// WriteResult atomically persists one rank's fragment.
func WriteResult(path string, r *RankResult) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return atomicWrite(path, data)
}

// OwnedValues extracts rank's contribution from a run's global array:
// the value vectors of every iteration point the computer-owns rule
// assigns to rank, concatenated in global scan order.
func OwnedValues(p *exec.Program, g *exec.Global, rank int) ([]float64, error) {
	var out []float64
	var werr error
	p.ScanSpace(func(j ilin.Vec) bool {
		r, _, err := p.Dist.Loc(j)
		if err != nil {
			werr = fmt.Errorf("procrun: loc(%v): %w", j, err)
			return false
		}
		if r == rank {
			out = append(out, g.At(j)...)
		}
		return true
	})
	return out, werr
}

// Merge reassembles per-rank fragments into the full global array and
// the world-level traffic statistics. Every rank of the distribution
// must be present exactly once; each fragment must carry exactly its
// owned value count.
func Merge(p *exec.Program, results []*RankResult) (*exec.Global, mpi.Stats, error) {
	procs := p.Dist.NumProcs()
	byRank := make([]*RankResult, procs)
	for _, r := range results {
		if r.Rank < 0 || r.Rank >= procs {
			return nil, mpi.Stats{}, fmt.Errorf("procrun: merge: rank %d outside world of %d", r.Rank, procs)
		}
		if byRank[r.Rank] != nil {
			return nil, mpi.Stats{}, fmt.Errorf("procrun: merge: rank %d appears twice", r.Rank)
		}
		byRank[r.Rank] = r
	}
	for rank, r := range byRank {
		if r == nil {
			return nil, mpi.Stats{}, fmt.Errorf("procrun: merge: rank %d missing", rank)
		}
	}

	g := p.NewGlobal()
	cursor := make([]int, procs)
	var werr error
	p.ScanSpace(func(j ilin.Vec) bool {
		rank, _, err := p.Dist.Loc(j)
		if err != nil {
			werr = fmt.Errorf("procrun: loc(%v): %w", j, err)
			return false
		}
		vals := byRank[rank].Values
		c := cursor[rank]
		if c+p.Width > len(vals) {
			werr = fmt.Errorf("procrun: merge: rank %d fragment exhausted at %v", rank, j)
			return false
		}
		g.Set(j, vals[c:c+p.Width])
		cursor[rank] = c + p.Width
		return true
	})
	if werr != nil {
		return nil, mpi.Stats{}, werr
	}
	for rank, r := range byRank {
		if cursor[rank] != len(r.Values) {
			return nil, mpi.Stats{}, fmt.Errorf("procrun: merge: rank %d fragment has %d values, consumed %d",
				rank, len(r.Values), cursor[rank])
		}
	}

	per := make([]mpi.RankTraffic, procs)
	for rank, r := range byRank {
		per[rank] = r.Traffic
	}
	return g, mpi.StatsOf(per), nil
}

// SaveSnapshot atomically persists a rank checkpoint (gob: snapshots
// carry float64 slices, where JSON would lose NaN and bit-exactness).
func SaveSnapshot(path string, s *exec.RankSnapshot) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(tmp).Encode(s); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadSnapshot loads a rank checkpoint; a missing file returns
// (nil, nil) — the fresh-start case of a relaunch loop.
func LoadSnapshot(path string) (*exec.RankSnapshot, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var s exec.RankSnapshot
	if err := gob.NewDecoder(f).Decode(&s); err != nil {
		return nil, fmt.Errorf("procrun: snapshot %s: %w", path, err)
	}
	return &s, nil
}

func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
