package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/topo"
)

// snapshotVersion is the snapshot.json format version.
const snapshotVersion = 1

// snapshotFile is the on-disk snapshot. The demand set reuses the
// demand.Save workload encoding (name-based node references) so a
// snapshot stays meaningful across processes and is inspectable with
// the same tooling as workload files; link-down entries are DC-name
// pairs for the same reason.
type snapshotFile struct {
	Version    int                    `json:"version"`
	NextID     int                    `json:"next_id"`
	Epoch      uint64                 `json:"epoch"`
	LinkDown   [][2]string            `json:"link_down,omitempty"`
	Allocation map[string][][]float64 `json:"allocation,omitempty"`
	Demands    json.RawMessage        `json:"demands"`
}

// encodeSnapshot writes st as JSON, resolving node ids via net.
func encodeSnapshot(w io.Writer, net *topo.Network, st *State) error {
	active := make([]*demand.Demand, 0, len(st.Demands))
	for _, d := range st.Demands {
		active = append(active, d)
	}
	sort.Slice(active, func(i, j int) bool { return active[i].ID < active[j].ID })
	var db bytes.Buffer
	if err := demand.Save(&db, net, active); err != nil {
		return fmt.Errorf("store: snapshot demands: %w", err)
	}
	sf := snapshotFile{
		Version: snapshotVersion,
		NextID:  st.NextID,
		Epoch:   st.Epoch,
		Demands: json.RawMessage(db.Bytes()),
	}
	for id, down := range st.LinkDown {
		if !down {
			continue
		}
		l := net.Link(id)
		sf.LinkDown = append(sf.LinkDown, [2]string{net.NodeName(l.Src), net.NodeName(l.Dst)})
	}
	sort.Slice(sf.LinkDown, func(i, j int) bool {
		if sf.LinkDown[i][0] != sf.LinkDown[j][0] {
			return sf.LinkDown[i][0] < sf.LinkDown[j][0]
		}
		return sf.LinkDown[i][1] < sf.LinkDown[j][1]
	})
	if len(st.Current) > 0 {
		sf.Allocation = allocToJSON(st.Current)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&sf)
}

// decodeSnapshot reads a snapshot back into a State, built through
// Apply like every other state change.
func decodeSnapshot(r io.Reader, net *topo.Network) (*State, error) {
	var sf snapshotFile
	if err := json.NewDecoder(r).Decode(&sf); err != nil {
		return nil, fmt.Errorf("store: decode snapshot: %w", err)
	}
	if sf.Version != snapshotVersion {
		return nil, fmt.Errorf("store: snapshot version %d not supported", sf.Version)
	}
	st := NewState()
	st.NextID = sf.NextID
	st.Apply(Epoch{Epoch: sf.Epoch})
	if len(sf.Demands) > 0 {
		demands, err := demand.Load(bytes.NewReader(sf.Demands), net)
		if err != nil {
			return nil, fmt.Errorf("store: snapshot demands: %w", err)
		}
		for _, d := range demands {
			if _, dup := st.Demands[d.ID]; dup {
				return nil, fmt.Errorf("store: duplicate demand id %d in snapshot", d.ID)
			}
			st.Apply(Admit{Demand: d})
		}
	}
	for _, pair := range sf.LinkDown {
		id, ok := linkByNames(net, pair[0], pair[1])
		if !ok {
			return nil, fmt.Errorf("store: snapshot link %s-%s not in topology", pair[0], pair[1])
		}
		st.Apply(Link{ID: id})
	}
	a, err := allocFromJSON(sf.Allocation)
	if err != nil {
		return nil, err
	}
	st.Apply(Schedule{Alloc: a})
	return st, nil
}

// linkByNames resolves a DC name pair to the link between them.
func linkByNames(net *topo.Network, src, dst string) (topo.LinkID, bool) {
	s, ok1 := net.NodeByName(src)
	d, ok2 := net.NodeByName(dst)
	if !ok1 || !ok2 {
		return 0, false
	}
	l, ok := net.LinkBetween(s, d)
	return l.ID, ok
}

func allocToJSON(a alloc.Allocation) map[string][][]float64 {
	out := make(map[string][][]float64, len(a))
	for id, rows := range a {
		out[strconv.Itoa(id)] = rows
	}
	return out
}

func allocFromJSON(m map[string][][]float64) (alloc.Allocation, error) {
	a := alloc.Allocation{}
	for key, rows := range m {
		id, err := strconv.Atoi(key)
		if err != nil {
			return nil, fmt.Errorf("store: bad allocation key %q", key)
		}
		a[id] = rows
	}
	return a, nil
}
