package mint

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// DefaultChannelWidth is used for channels that do not declare w=.
const DefaultChannelWidth = 100

// widthParamPrefix namespaces per-channel widths inside device params so a
// MINT -> ParchMint -> MINT round trip preserves them (ParchMint v1
// connections carry no width of their own; widths normally live in routed
// features).
const widthParamPrefix = "channelWidth."

// Fidelity reports how faithful a conversion was. Conversions always
// produce output; Notes records anything that could not be represented.
type Fidelity struct {
	Notes []string
}

// Lossless reports whether the conversion preserved everything.
func (f *Fidelity) Lossless() bool { return len(f.Notes) == 0 }

func (f *Fidelity) notef(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// defaultSpans returns the conventional footprint for an entity when the
// MINT statement does not size it.
func defaultSpans(entity string) (x, y int64) {
	switch entity {
	case core.EntityPort:
		return 200, 200
	case core.EntityValve, core.EntityValve3D:
		return 300, 300
	case core.EntityMixer:
		return 2000, 1000
	default:
		return 1000, 1000
	}
}

// ConventionPorts generates the MINT port convention for an entity with the
// given footprint: PORT gets a single centered "port1"; every other entity
// gets `in` ports evenly spaced on the west edge labeled port1..port{in}
// followed by `out` ports on the east edge.
func ConventionPorts(entity, layerID string, xSpan, ySpan int64, in, out int) []core.Port {
	if entity == core.EntityPort {
		return []core.Port{{Label: "port1", Layer: layerID, X: xSpan / 2, Y: ySpan / 2}}
	}
	ports := make([]core.Port, 0, in+out)
	for i := 1; i <= in; i++ {
		ports = append(ports, core.Port{
			Label: "port" + strconv.Itoa(i),
			Layer: layerID,
			X:     0,
			Y:     ySpan * int64(i) / int64(in+1),
		})
	}
	for j := 1; j <= out; j++ {
		ports = append(ports, core.Port{
			Label: "port" + strconv.Itoa(in+j),
			Layer: layerID,
			X:     xSpan,
			Y:     ySpan * int64(j) / int64(out+1),
		})
	}
	return ports
}

// ToDevice converts a parsed MINT file to a ParchMint device.
func ToDevice(f *File) (*core.Device, *Fidelity, error) {
	fid := &Fidelity{}
	d := &core.Device{Name: f.DeviceName, Params: core.Params{}}

	flowCount, ctrlCount := 0, 0
	for _, block := range f.Layers {
		layerID := ""
		switch block.Type {
		case core.LayerFlow:
			flowCount++
			layerID = layerName("flow", flowCount)
		case core.LayerControl:
			ctrlCount++
			layerID = layerName("control", ctrlCount)
		default:
			return nil, nil, fmt.Errorf("mint: unsupported layer type %q", block.Type)
		}
		d.Layers = append(d.Layers, core.Layer{ID: layerID, Name: layerID, Type: block.Type})

		for _, stmt := range block.Components {
			for _, id := range stmt.IDs {
				comp, err := statementComponent(&stmt, id, layerID, fid)
				if err != nil {
					return nil, nil, err
				}
				d.Components = append(d.Components, comp)
			}
		}
		for _, ch := range block.Channels {
			conn := core.Connection{
				ID:     ch.ID,
				Name:   ch.ID,
				Layer:  layerID,
				Source: refTarget(ch.From),
				Sinks:  []core.Target{refTarget(ch.To)},
			}
			d.Connections = append(d.Connections, conn)
			// Only non-default widths are worth a param entry; recording
			// the default would make MINT->ParchMint->MINT round trips
			// grow params the original device never had.
			if w, ok := ch.Params["w"]; ok && w != DefaultChannelWidth {
				d.Params[widthParamPrefix+ch.ID] = float64(w)
			}
			for k := range ch.Params {
				if k != "w" {
					fid.notef("channel %s: parameter %q dropped", ch.ID, k)
				}
			}
		}
	}
	if len(d.Params) == 0 {
		d.Params = nil
	}
	return d, fid, nil
}

func layerName(base string, n int) string {
	if n == 1 {
		return base
	}
	return base + strconv.Itoa(n)
}

// statementComponent realizes one instance of a component statement.
func statementComponent(stmt *ComponentStmt, id, layerID string, fid *Fidelity) (core.Component, error) {
	x, y := defaultSpans(stmt.Entity)
	if r, ok := stmt.Params["r"]; ok {
		if r <= 0 {
			return core.Component{}, errf(stmt.Line, "component %s: non-positive radius %d", id, r)
		}
		x, y = 2*r, 2*r
	}
	if w, ok := stmt.Params["w"]; ok {
		x = w
	}
	if h, ok := stmt.Params["h"]; ok {
		y = h
	}
	if x <= 0 || y <= 0 {
		return core.Component{}, errf(stmt.Line, "component %s: non-positive footprint %dx%d", id, x, y)
	}
	in, out := 1, 1
	if v, ok := stmt.Params["in"]; ok {
		in = int(v)
	}
	if v, ok := stmt.Params["out"]; ok {
		out = int(v)
	}
	if in < 0 || out < 0 || in+out == 0 {
		return core.Component{}, errf(stmt.Line, "component %s: invalid port counts in=%d out=%d", id, in, out)
	}
	for k := range stmt.Params {
		switch k {
		case "w", "h", "r", "in", "out":
		default:
			fid.notef("component %s: parameter %q dropped", id, k)
		}
	}
	return core.Component{
		ID:     id,
		Name:   id,
		Entity: stmt.Entity,
		Layers: []string{layerID},
		XSpan:  x,
		YSpan:  y,
		Ports:  ConventionPorts(stmt.Entity, layerID, x, y, in, out),
	}, nil
}

func refTarget(r Ref) core.Target {
	t := core.Target{Component: r.Component}
	if r.PortNum > 0 {
		t.Port = "port" + strconv.Itoa(r.PortNum)
	}
	return t
}

// ErrNoLayers is wrapped by FromDevice's error for a device without
// layers: MINT writes every statement inside a layer block, so such a
// device has no MINT form. It is a fault of the input, not of the
// converter.
var ErrNoLayers = errors.New("no layers")

// FromDevice converts a ParchMint device to a MINT file. Devices that use
// constructs outside the MINT subset (multi-layer components, multi-sink
// connections, off-convention ports) still convert, with the degradations
// recorded in the returned Fidelity.
func FromDevice(d *core.Device) (*File, *Fidelity, error) {
	fid := &Fidelity{}
	f := &File{DeviceName: d.Name}
	if f.DeviceName == "" {
		f.DeviceName = "unnamed"
		fid.notef("device has no name; using %q", f.DeviceName)
	}

	blockOf := make(map[string]int, len(d.Layers))
	for _, l := range d.Layers {
		typ := l.Type
		if typ != core.LayerFlow && typ != core.LayerControl {
			fid.notef("layer %s: type %q not expressible; emitting FLOW", l.ID, l.Type)
			typ = core.LayerFlow
		}
		blockOf[l.ID] = len(f.Layers)
		f.Layers = append(f.Layers, LayerBlock{Type: typ})
	}
	if len(f.Layers) == 0 {
		return nil, nil, fmt.Errorf("mint: device %q has %w", d.Name, ErrNoLayers)
	}

	for i := range d.Components {
		c := &d.Components[i]
		bi, stmt := componentStatement(c, blockOf, fid)
		f.Layers[bi].Components = append(f.Layers[bi].Components, stmt)
	}
	for i := range d.Connections {
		cn := &d.Connections[i]
		bi, ok := blockOf[cn.Layer]
		if !ok {
			fid.notef("connection %s: undeclared layer %q; emitting in first block", cn.ID, cn.Layer)
			bi = 0
		}
		width := int64(d.Params.GetDefault(widthParamPrefix+cn.ID,
			d.Params.GetDefault("channelWidth", DefaultChannelWidth)))
		if len(cn.Sinks) == 0 {
			fid.notef("connection %s: no sinks; dropped", cn.ID)
			continue
		}
		for si, sink := range cn.Sinks {
			id := cn.ID
			if len(cn.Sinks) > 1 {
				id = fmt.Sprintf("%s_s%d", cn.ID, si)
				if si == 0 {
					fid.notef("connection %s: fanout %d split into %d channels", cn.ID, len(cn.Sinks), len(cn.Sinks))
				}
			}
			f.Layers[bi].Channels = append(f.Layers[bi].Channels, ChannelStmt{
				ID:     id,
				From:   targetRef(d, cn.Source, cn.ID, fid),
				To:     targetRef(d, sink, cn.ID, fid),
				Params: map[string]int64{"w": width},
			})
		}
	}
	if len(d.Features) > 0 {
		fid.notef("%d physical features dropped (MINT is pre-placement)", len(d.Features))
	}
	if len(d.ValveMap) > 0 {
		fid.notef("v1.2 valve map (%d entries) dropped", len(d.ValveMap))
	}
	nPaths := 0
	for i := range d.Connections {
		nPaths += len(d.Connections[i].Paths)
	}
	if nPaths > 0 {
		fid.notef("v1.2 connection paths (%d) dropped", nPaths)
	}
	return f, fid, nil
}

// componentStatement renders one component as a MINT statement, noting any
// geometry outside the convention.
func componentStatement(c *core.Component, blockOf map[string]int, fid *Fidelity) (int, ComponentStmt) {
	bi := 0
	if len(c.Layers) == 0 {
		fid.notef("component %s: no layers; emitting in first block", c.ID)
	} else {
		if idx, ok := blockOf[c.Layers[0]]; ok {
			bi = idx
		} else {
			fid.notef("component %s: undeclared layer %q; emitting in first block", c.ID, c.Layers[0])
		}
		if len(c.Layers) > 1 {
			fid.notef("component %s: spans %d layers; MINT keeps only %q", c.ID, len(c.Layers), c.Layers[0])
		}
	}
	entity := c.Entity
	if !knownMintEntity(entity) {
		fid.notef("component %s: entity %q not in MINT vocabulary; emitting CHAMBER", c.ID, c.Entity)
		entity = core.EntityChamber
	}
	stmt := ComponentStmt{Entity: entity, IDs: []string{c.ID}, Params: map[string]int64{}}

	if entity == core.EntityPort && c.XSpan == c.YSpan && c.XSpan%2 == 0 {
		stmt.Params["r"] = c.XSpan / 2
	} else {
		stmt.Params["w"] = c.XSpan
		stmt.Params["h"] = c.YSpan
	}

	in, out := classifyPorts(c)
	if in >= 0 {
		if in != 1 {
			stmt.Params["in"] = int64(in)
		}
		if out != 1 {
			stmt.Params["out"] = int64(out)
		}
	} else {
		fid.notef("component %s: port geometry is off-convention; regenerated ports will differ", c.ID)
	}
	return bi, stmt
}

// classifyPorts checks whether c's ports follow the MINT convention and
// returns (in, out) counts; (-1, -1) when off-convention.
func classifyPorts(c *core.Component) (in, out int) {
	layer := ""
	if len(c.Layers) > 0 {
		layer = c.Layers[0]
	}
	if c.Entity == core.EntityPort {
		want := ConventionPorts(c.Entity, layer, c.XSpan, c.YSpan, 1, 1)
		if portsEqual(c.Ports, want) {
			return 1, 1
		}
		return -1, -1
	}
	nIn, nOut := 0, 0
	for _, p := range c.Ports {
		switch {
		case p.X == 0:
			nIn++
		case p.X == c.XSpan:
			nOut++
		default:
			return -1, -1
		}
	}
	want := ConventionPorts(c.Entity, layer, c.XSpan, c.YSpan, nIn, nOut)
	if portsEqual(c.Ports, want) {
		return nIn, nOut
	}
	return -1, -1
}

func portsEqual(a, b []core.Port) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func knownMintEntity(entity string) bool {
	if _, ok := twoWordEntities[entity]; ok {
		return true
	}
	_, ok := oneWordEntities[strings.ToUpper(entity)]
	return ok
}

// targetRef converts a ParchMint target to a MINT endpoint reference. Port
// labels outside the "portN" convention degrade to any-port references.
func targetRef(d *core.Device, t core.Target, connID string, fid *Fidelity) Ref {
	r := Ref{Component: t.Component}
	if t.Port == "" {
		return r
	}
	if n, ok := strings.CutPrefix(t.Port, "port"); ok {
		if v, err := strconv.Atoi(n); err == nil && v > 0 {
			r.PortNum = v
			return r
		}
	}
	fid.notef("connection %s: port label %q not numeric; emitting any-port reference", connID, t.Port)
	return r
}
