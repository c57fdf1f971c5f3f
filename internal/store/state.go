package store

import (
	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/topo"
)

// State is the controller state the store persists and restores: the
// full demand book, the installed allocation, observed link failures,
// the broker-push epoch and the next demand id to hand out. The live
// controller holds one State and changes it only through Apply, the
// same function WAL replay runs, so a restarted or failed-over master
// resumes with exactly the state the old one acked.
type State struct {
	Demands  map[int]*demand.Demand
	Current  alloc.Allocation
	LinkDown map[topo.LinkID]bool
	Epoch    uint64
	NextID   int
}

// NewState returns an empty, non-nil state.
func NewState() *State {
	return &State{
		Demands:  make(map[int]*demand.Demand),
		Current:  alloc.Allocation{},
		LinkDown: make(map[topo.LinkID]bool),
	}
}

// Record is one state transition, and one WAL record: Admit, Withdraw,
// Link, Epoch or Schedule.
type Record interface {
	Type() RecordType
}

// Admit puts a demand on the book with the allocation rows its
// admission produced (nil when it produced none).
type Admit struct {
	Demand *demand.Demand
	Rows   [][]float64
}

// Withdraw removes a demand and its allocation rows.
type Withdraw struct{ ID int }

// Link records an observed link state change.
type Link struct {
	ID topo.LinkID
	Up bool
}

// Epoch records a broker-push epoch.
type Epoch struct{ Epoch uint64 }

// Schedule installs a committed allocation in place of the current one.
type Schedule struct{ Alloc alloc.Allocation }

// Type reports the WAL record type each transition is logged as.
func (Admit) Type() RecordType    { return RecAdmit }
func (Withdraw) Type() RecordType { return RecWithdraw }
func (Link) Type() RecordType     { return RecLink }
func (Epoch) Type() RecordType    { return RecEpoch }
func (Schedule) Type() RecordType { return RecSchedule }

// Apply is the one place the state changes. Every record sets values
// rather than adjusting them, so replaying a record the state already
// reflects (a stale WAL suffix after a compaction) changes nothing.
func (st *State) Apply(r Record) {
	switch r := r.(type) {
	case Admit:
		st.Demands[r.Demand.ID] = r.Demand
		if r.Rows != nil {
			st.Current[r.Demand.ID] = r.Rows
		}
	case Withdraw:
		delete(st.Demands, r.ID)
		delete(st.Current, r.ID)
	case Link:
		if r.Up {
			delete(st.LinkDown, r.ID)
		} else {
			st.LinkDown[r.ID] = true
		}
	case Epoch:
		st.Epoch = r.Epoch
	case Schedule:
		st.Current = r.Alloc
	}
}

// idSpace is the size of the demand id ring: ids are 12-bit because
// they ride in the wire label next to the tunnel index.
const idSpace = 1 << 12

// AllocateID hands out the next free demand id, or -1 when every id is
// on the book. Id 0 is never assigned: it is the wire protocol's
// "unassigned" sentinel, which is what makes idempotent resubmission
// detectable.
func (st *State) AllocateID() int {
	for tries := 0; tries < idSpace; tries++ {
		id := st.NextID
		st.NextID = (st.NextID + 1) % idSpace
		if id == 0 {
			continue
		}
		if _, used := st.Demands[id]; !used {
			return id
		}
	}
	return -1
}

// deriveNextID resumes the id allocator past every replayed demand id,
// so a recovered master cannot re-issue a live id.
func (st *State) deriveNextID() {
	next := st.NextID
	for id := range st.Demands {
		if c := (id + 1) % idSpace; idDistance(next, c) > 0 {
			next = c
		}
	}
	if next <= 0 || next >= idSpace {
		next = 1
	}
	st.NextID = next
}

// idDistance reports how far ahead b is of a in the id ring; positive
// means b is ahead.
func idDistance(a, b int) int {
	d := (b - a) % idSpace
	if d < 0 {
		d += idSpace
	}
	if d > idSpace/2 {
		d -= idSpace
	}
	return d
}

// clone deep-copies the state so the store and the controller never
// share mutable structures.
func (st *State) clone() *State {
	out := NewState()
	out.NextID = st.NextID
	out.Apply(Epoch{Epoch: st.Epoch})
	for _, d := range st.Demands {
		cp := *d
		cp.Pairs = append([]demand.PairDemand(nil), d.Pairs...)
		out.Apply(Admit{Demand: &cp})
	}
	for id, down := range st.LinkDown {
		if down {
			out.Apply(Link{ID: id})
		}
	}
	out.Apply(Schedule{Alloc: st.Current.Clone()})
	return out
}
