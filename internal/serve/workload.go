package serve

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// Overlay is the serve-mode workload source: it wraps the scenario's
// trace generator and overrides the load of dynamically admitted VMs
// with their client-reported streams. The base generator returns zero
// rows for VM IDs it was not built with, so the overlay is the only
// thing standing between an HTTP-admitted VM and serving nothing.
//
// Ownership: the engine-loop goroutine writes (Register/SetLoad/Remove,
// always between ticks); during Step the engine's tick workers call Fill
// concurrently on disjoint chunks, which only read the map, so the
// overlay meets sim.Workload's concurrency contract as it stands. The
// overlay is deterministic by construction: the rows it serves are a
// pure function of the applied event stream.
type Overlay struct {
	base    sim.Workload
	sources int
	rows    map[model.VMID]model.LoadVector
}

// NewOverlay wraps a base workload for a topology with the given number
// of client locations.
func NewOverlay(base sim.Workload, sources int) *Overlay {
	return &Overlay{
		base:    base,
		sources: sources,
		rows:    make(map[model.VMID]model.LoadVector),
	}
}

// Register installs a VM's initial reported load, homed entirely at one
// client location (dynamic VMs have no scripted per-source split; their
// clients sit where the offer said they do).
func (ov *Overlay) Register(id model.VMID, home model.LocationID, l model.Load) {
	row := make(model.LoadVector, ov.sources)
	if int(home) >= 0 && int(home) < ov.sources {
		row[home] = l
	}
	ov.rows[id] = row
}

// SetLoad replaces a registered VM's reported load in place; unknown IDs
// are ignored (the VM was never registered, or already removed).
func (ov *Overlay) SetLoad(id model.VMID, home model.LocationID, l model.Load) {
	row, ok := ov.rows[id]
	if !ok {
		return
	}
	for i := range row {
		row[i] = model.Load{}
	}
	if int(home) >= 0 && int(home) < ov.sources {
		row[home] = l
	}
}

// Remove forgets a departed VM's row.
func (ov *Overlay) Remove(id model.VMID) { delete(ov.rows, id) }

// Registered reports whether a VM has an overlay row.
func (ov *Overlay) Registered(id model.VMID) bool {
	_, ok := ov.rows[id]
	return ok
}

// Fill implements sim.Workload: the base shape for scripted VMs, the
// overlay row for registered dynamic VMs. Rows are copied out, never
// aliased, so the engine's buffers cannot corrupt overlay state.
func (ov *Overlay) Fill(tick int, vms []model.VMID, dst []model.LoadVector) {
	ov.base.Fill(tick, vms, dst)
	for i, id := range vms {
		if row, ok := ov.rows[id]; ok {
			copy(dst[i], row)
		}
	}
}
