package sim

import (
	"fmt"

	"repro/internal/model"
)

// VMHandle identifies one admitted VM for the lifetime of its admission.
// Slots are reused once a VM retires (the engine keeps a free-list so the
// SoA truth slices never grow during a run), so a bare slot index is not a
// stable identity; the generation counter is. A handle whose generation no
// longer matches the slot's is stale and every operation on it fails —
// the classic index-reuse bug class is unrepresentable.
type VMHandle struct {
	Slot int32
	Gen  uint32
}

// ActiveVM reports whether slot i currently holds an admitted VM. Callers
// iterating the dense index space [0, NumVMs()) under workload churn must
// skip inactive slots.
func (e *Engine) ActiveVM(i int) bool {
	return i >= 0 && i < e.nVM && e.activeVM[i]
}

// NumActiveVMs returns how many VMs are currently admitted.
func (e *Engine) NumActiveVMs() int { return e.nActive }

// VMSlotCap returns the total slot capacity (static population plus
// Config.ExtraVMSlots). AdmitVM fails once every slot is live.
func (e *Engine) VMSlotCap() int { return e.capVM }

// HandleOf returns the current handle of slot i; ok is false for
// inactive slots.
func (e *Engine) HandleOf(i int) (VMHandle, bool) {
	if !e.ActiveVM(i) {
		return VMHandle{}, false
	}
	return VMHandle{Slot: int32(i), Gen: e.gens[i]}, true
}

// LookupVM resolves a VM ID to its live handle.
func (e *Engine) LookupVM(id model.VMID) (VMHandle, bool) {
	i, ok := e.vmByID[id]
	if !ok {
		return VMHandle{}, false
	}
	return VMHandle{Slot: int32(i), Gen: e.gens[i]}, true
}

// Valid reports whether a handle still refers to a live admission.
func (e *Engine) Valid(h VMHandle) bool {
	i := int(h.Slot)
	return i >= 0 && i < e.nVM && e.activeVM[i] && e.gens[i] == h.Gen
}

// AdmitVM brings a new VM into the running world: it claims a slot (from
// the free-list when one exists, extending the high-water mark otherwise),
// registers the VM with the placement state and the monitoring pipeline,
// and returns its handle. The VM starts unplaced and produces load from
// the workload generator on the next Step. Admission happens between
// ticks; it may allocate (map inserts), but the tick hot path stays
// allocation-free because every per-slot buffer was sized at construction.
func (e *Engine) AdmitVM(spec model.VMSpec) (VMHandle, error) {
	if _, dup := e.vmByID[spec.ID]; dup {
		return VMHandle{}, fmt.Errorf("sim: VM %v already admitted", spec.ID)
	}
	var slot int
	fromFree := false
	switch {
	case len(e.freeSlots) > 0:
		slot = int(e.freeSlots[len(e.freeSlots)-1])
		e.freeSlots = e.freeSlots[:len(e.freeSlots)-1]
		fromFree = true
	case e.nVM < e.capVM:
		slot = e.nVM
		e.nVM++
	default:
		return VMHandle{}, fmt.Errorf("sim: VM slots exhausted (%d live of %d)", e.nActive, e.capVM)
	}
	if err := e.state.AddVM(spec); err != nil {
		if fromFree {
			e.freeSlots = append(e.freeSlots, int32(slot))
		} else {
			e.nVM--
		}
		return VMHandle{}, err
	}
	e.gens[slot]++
	e.activeVM[slot] = true
	e.nActive++
	e.vmIDs[slot] = spec.ID
	e.vmSpecs[slot] = spec
	e.vmByID[spec.ID] = slot
	e.hostOf[slot] = -1
	e.clearVMSlot(slot)
	e.obsVM[slot] = int32(e.obs.EnsureVM(spec.ID))
	e.rebuildFill()
	return VMHandle{Slot: int32(slot), Gen: e.gens[slot]}, nil
}

// RetireVM removes a VM from the world: it is evicted from its host (no
// migration cost — the service is shutting down, not moving), dropped
// from the placement state and the monitors, and its slot returns to the
// free-list with a bumped generation so the handle — and any copy of it —
// dies with the VM. Only dynamically admitted VMs can retire; the static
// inventory population is permanent.
func (e *Engine) RetireVM(h VMHandle) error {
	i := int(h.Slot)
	if !e.Valid(h) {
		return fmt.Errorf("sim: stale or unknown VM handle {slot %d gen %d}", h.Slot, h.Gen)
	}
	id := e.vmIDs[i]
	// Reject non-dynamic VMs before touching any state: a partial retire
	// would desynchronise the dense mirrors from cluster.State.
	if _, dynamic := e.state.DynamicVM(id); !dynamic {
		return fmt.Errorf("sim: %v is part of the static inventory population and cannot retire", id)
	}
	// RemoveVM evicts from the guest list and placement map itself.
	if err := e.state.RemoveVM(id); err != nil {
		return err
	}
	e.obs.ForgetVM(id)
	delete(e.vmByID, id)
	e.gens[i]++
	e.activeVM[i] = false
	e.nActive--
	e.backlog[i] = 0
	e.downtime[i] = 0
	e.freeSlots = append(e.freeSlots, int32(i))
	e.syncPlacement()
	e.rebuildFill()
	return nil
}

// clearVMSlot zeroes the persistent and per-tick truth of a slot so a
// reused slot starts life with no residue of its previous tenant (no
// inherited gateway backlog, no stale truth rows).
func (e *Engine) clearVMSlot(i int) {
	e.backlog[i] = 0
	e.downtime[i] = 0
	row := e.loadRows[i]
	for k := range row {
		row[k] = model.Load{}
	}
	e.totals[i] = model.Load{}
	e.required[i] = model.Resources{}
	e.granted[i] = model.Resources{}
	e.used[i] = model.Resources{}
	e.rtProcess[i] = 0
	rt := e.rtRow(i)
	for k := range rt {
		rt[k] = 0
	}
	e.slaLvl[i] = 0
	e.queueLen[i] = 0
	e.migrating[i] = false
}

// rebuildFill recompacts the active-slot view handed to the workload
// generator. It runs only on admit/retire — never per tick — and reuses
// its backing arrays (capacity fixed at construction), so steady-state
// ticks stay allocation-free.
func (e *Engine) rebuildFill() {
	e.fillIDs = e.fillIDs[:0]
	e.fillRows = e.fillRows[:0]
	e.fillSlots = e.fillSlots[:0]
	for i := 0; i < e.nVM; i++ {
		if !e.activeVM[i] {
			continue
		}
		e.fillIDs = append(e.fillIDs, e.vmIDs[i])
		e.fillRows = append(e.fillRows, e.loadRows[i])
		e.fillSlots = append(e.fillSlots, int32(i))
	}
}
