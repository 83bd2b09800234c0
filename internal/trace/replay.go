package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/model"
)

// Replay serves workload recorded in CSV — the bridge for users who hold
// real gateway logs (the role the Li-BCN traces play in the paper). The
// format is one row per (tick, vm, source) stream:
//
//	tick,vm,source,rps,bytesIn,bytesOut,cpuTime
//
// Ticks beyond the recording wrap around, so a one-day trace drives runs
// of any length.
type Replay struct {
	sources int
	ticks   int
	loads   map[int]map[model.VMID]model.LoadVector
}

// NewReplay parses a CSV trace. sources is the number of client locations
// (source indices in the file must stay below it).
func NewReplay(r io.Reader, sources int) (*Replay, error) {
	if sources <= 0 {
		return nil, fmt.Errorf("trace: sources must be positive")
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 7
	rep := &Replay{sources: sources, loads: make(map[int]map[model.VMID]model.LoadVector)}
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading replay: %w", err)
		}
		line++
		if line == 1 && rec[0] == "tick" {
			continue // header
		}
		tick, err := strconv.Atoi(rec[0])
		if err != nil || tick < 0 {
			return nil, fmt.Errorf("trace: bad tick %q on line %d", rec[0], line)
		}
		vmRaw, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("trace: bad vm %q on line %d", rec[1], line)
		}
		src, err := strconv.Atoi(rec[2])
		if err != nil || src < 0 || src >= sources {
			return nil, fmt.Errorf("trace: bad source %q on line %d", rec[2], line)
		}
		vals := make([]float64, 4)
		for i := 0; i < 4; i++ {
			v, err := strconv.ParseFloat(rec[3+i], 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("trace: bad value %q on line %d", rec[3+i], line)
			}
			vals[i] = v
		}
		vm := model.VMID(vmRaw)
		byVM := rep.loads[tick]
		if byVM == nil {
			byVM = make(map[model.VMID]model.LoadVector)
			rep.loads[tick] = byVM
		}
		lv := byVM[vm]
		if lv == nil {
			lv = make(model.LoadVector, sources)
		}
		lv[src] = model.Load{RPS: vals[0], BytesInReq: vals[1], BytesOutRq: vals[2], CPUTimeReq: vals[3]}
		byVM[vm] = lv
		if tick+1 > rep.ticks {
			rep.ticks = tick + 1
		}
	}
	if rep.ticks == 0 {
		return nil, fmt.Errorf("trace: replay is empty")
	}
	return rep, nil
}

// Ticks returns the recording length.
func (r *Replay) Ticks() int { return r.ticks }

// Fill implements the sim.Workload contract; ticks wrap modulo the
// recording length. Rows are fully overwritten: recorded streams are
// copied in, everything else is zeroed. Fill performs no allocations and
// only reads the recording, so concurrent calls are safe.
func (r *Replay) Fill(tick int, vms []model.VMID, dst []model.LoadVector) {
	t := tick % r.ticks
	if t < 0 {
		t += r.ticks
	}
	byVM := r.loads[t]
	for i, id := range vms {
		row := dst[i]
		for k := range row {
			row[k] = model.Load{}
		}
		if lv, ok := byVM[id]; ok {
			copy(row, lv)
		}
	}
}

// Loads returns the recorded load vectors of one tick in a fresh map;
// ticks wrap modulo the recording length.
func (r *Replay) Loads(tick int) map[model.VMID]model.LoadVector {
	t := tick % r.ticks
	if t < 0 {
		t += r.ticks
	}
	byVM := r.loads[t]
	out := make(map[model.VMID]model.LoadVector, len(byVM))
	for vm, lv := range byVM {
		out[vm] = lv.Clone()
	}
	return out
}

// ExportCSV writes a generator's output for the given tick range in the
// replay format, so synthetic workloads can be captured, edited and
// replayed — or real logs can be converted once and reused.
func ExportCSV(w io.Writer, g *Generator, ticks int) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"tick", "vm", "source", "rps", "bytesIn", "bytesOut", "cpuTime"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	ids, rows := g.allRows()
	for t := 0; t < ticks; t++ {
		// Rows come out in (tick, VM, source) order so exports are
		// byte-stable across runs.
		g.Fill(t, ids, rows)
		for i, lv := range rows {
			for src, l := range lv {
				if l.RPS <= 0 {
					continue
				}
				err := cw.Write([]string{
					strconv.Itoa(t),
					strconv.Itoa(int(ids[i])),
					strconv.Itoa(src),
					f(l.RPS), f(l.BytesInReq), f(l.BytesOutRq), f(l.CPUTimeReq),
				})
				if err != nil {
					return err
				}
			}
		}
	}
	return cw.Error()
}
