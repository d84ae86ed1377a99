package core

import (
	"fmt"

	"repro/internal/geom"
)

// ParchMint v1.2 additions. Version 1.2 extends the v1 netlist with
// per-component parameters, routed polylines attached directly to
// connections ("paths"), and the valve map describing which connection
// each membrane valve actuates and whether it is normally open or closed.
// This package reads both versions and writes v1.2 keys only when the
// device uses them, so v1-only consumers keep working on v1-only devices.

// VersionV1 and VersionV12 are the format versions the codec emits.
const (
	VersionV1  = "1.0"
	VersionV12 = "1.2"
)

// ChannelPath is one routed polyline of a connection (v1.2 "paths"):
// straight segments from Source through each waypoint to Sink. Multi-sink
// connections carry one path per arm.
type ChannelPath struct {
	// Source and Sink are the endpoint coordinates in µm.
	Source geom.Point
	Sink   geom.Point
	// Waypoints are the interior corners, in order.
	Waypoints []geom.Point
}

// Points returns source, waypoints, and sink as one polyline.
func (p *ChannelPath) Points() []geom.Point {
	out := make([]geom.Point, 0, 2+len(p.Waypoints))
	out = append(out, p.Source)
	out = append(out, p.Waypoints...)
	out = append(out, p.Sink)
	return out
}

// Length returns the Manhattan length of the polyline in µm.
func (p *ChannelPath) Length() int64 {
	pts := p.Points()
	var sum int64
	for i := 1; i < len(pts); i++ {
		sum += pts[i-1].Manhattan(pts[i])
	}
	return sum
}

// ValveType classifies a valve's resting state (v1.2 "valveTypeMap").
type ValveType string

// Valve types.
const (
	// ValveNormallyOpen valves pass fluid unless actuated.
	ValveNormallyOpen ValveType = "NORMALLY_OPEN"
	// ValveNormallyClosed valves block fluid unless actuated.
	ValveNormallyClosed ValveType = "NORMALLY_CLOSED"
)

// UsesV12 reports whether the device carries any v1.2-only content.
func (d *Device) UsesV12() bool {
	if len(d.ValveMap) > 0 || len(d.ValveTypes) > 0 {
		return true
	}
	for i := range d.Components {
		if len(d.Components[i].Params) > 0 {
			return true
		}
	}
	for i := range d.Connections {
		if len(d.Connections[i].Paths) > 0 {
			return true
		}
	}
	return false
}

// PathsFromFeatures derives v1.2 connection paths from routed channel
// features: consecutive collinear segments of each connection merge into
// polylines. Segments are chained greedily in feature order (the order
// the router emitted them), starting a new path whenever a segment does
// not continue the previous one — one path per routed sink arm.
func (d *Device) PathsFromFeatures() map[string][]ChannelPath {
	out := make(map[string][]ChannelPath)
	for i := range d.Features {
		f := &d.Features[i]
		if f.Kind != FeatureChannel || f.Connection == "" {
			continue
		}
		paths := out[f.Connection]
		if n := len(paths); n > 0 && paths[n-1].Sink == f.Source {
			// Continue the open path: the previous sink becomes a waypoint.
			paths[n-1].Waypoints = append(paths[n-1].Waypoints, f.Source)
			paths[n-1].Sink = f.Sink
		} else {
			paths = append(paths, ChannelPath{Source: f.Source, Sink: f.Sink})
		}
		out[f.Connection] = paths
	}
	return out
}

// AttachPaths fills every connection's Paths from its routed features,
// returning the number of connections that received paths.
func (d *Device) AttachPaths() int {
	paths := d.PathsFromFeatures()
	n := 0
	for i := range d.Connections {
		cn := &d.Connections[i]
		if p, ok := paths[cn.ID]; ok {
			cn.Paths = p
			n++
		}
	}
	return n
}

// SetValve records that the valve component actuates the given connection
// (v1.2 valveMap) with the given resting type.
func (d *Device) SetValve(valveID, connectionID string, t ValveType) error {
	ix := d.Index()
	if ix.Component(valveID) == nil {
		return fmt.Errorf("core: valve map references missing component %q", valveID)
	}
	if ix.Connection(connectionID) == nil {
		return fmt.Errorf("core: valve map references missing connection %q", connectionID)
	}
	if d.ValveMap == nil {
		d.ValveMap = make(map[string]string)
	}
	if d.ValveTypes == nil {
		d.ValveTypes = make(map[string]ValveType)
	}
	d.ValveMap[valveID] = connectionID
	d.ValveTypes[valveID] = t
	return nil
}
