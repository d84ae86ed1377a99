// Package core implements the ParchMint interchange format for
// continuous-flow microfluidic laboratory-on-a-chip (LoC) devices — the
// primary contribution of "ParchMint: A Microfluidics Benchmark Suite"
// (IISWC 2018).
//
// A ParchMint device is a netlist: named Layers (flow, control), Components
// placed on those layers with typed entities and named Ports, and
// Connections (channels) that join one source port to one or more sink
// ports. A device may optionally carry physical Features — placed component
// geometry and routed channel segments — produced by a place-and-route flow.
//
// The package provides the in-memory model, exact JSON v1
// serialization (see json.go, canonenc.go and canondec.go), a fluent
// construction API (see builder.go), indexes and deep-copy/equality
// utilities (see lookup.go), and canonical ordering for deterministic
// interchange (see canon.go).
package core

import (
	"fmt"

	"repro/internal/geom"
)

// LayerType classifies a device layer. Continuous-flow LoCs are built from
// a flow layer carrying fluid and a control layer carrying valve actuation
// lines; ParchMint allows arbitrarily many of each.
type LayerType string

// The layer types used by the benchmark suite.
const (
	LayerFlow    LayerType = "FLOW"
	LayerControl LayerType = "CONTROL"
)

// Layer is one fabrication layer of the device.
type Layer struct {
	// ID uniquely identifies the layer within the device.
	ID string `json:"id"`
	// Name is the human-readable layer name.
	Name string `json:"name"`
	// Type distinguishes flow from control layers.
	Type LayerType `json:"type"`
}

// Port is a connection point on a component. Its coordinates are relative
// to the component's local origin (top-left corner), in micrometers.
type Port struct {
	// Label names the port uniquely within its component.
	Label string `json:"label"`
	// Layer is the ID of the layer the port lives on.
	Layer string `json:"layer"`
	// X, Y locate the port relative to the component origin.
	X int64 `json:"x"`
	Y int64 `json:"y"`
}

// Point returns the port location in component-local coordinates.
func (p Port) Point() geom.Point { return geom.Pt(p.X, p.Y) }

// Component is one functional element of the device: a port, mixer, valve,
// pump, and so on. Components are placed logically on one or more layers;
// physical position, when known, is carried by a Feature.
type Component struct {
	// ID uniquely identifies the component within the device.
	ID string `json:"id"`
	// Name is the human-readable instance name.
	Name string `json:"name"`
	// Entity is the component type (see entity.go for the suite's vocabulary).
	Entity string `json:"entity"`
	// Layers lists the IDs of every layer the component occupies.
	Layers []string `json:"layers"`
	// XSpan, YSpan are the component's footprint in micrometers.
	XSpan int64 `json:"x-span"`
	YSpan int64 `json:"y-span"`
	// Ports are the component's connection points.
	Ports []Port `json:"ports"`
	// Params holds per-component numeric parameters (ParchMint v1.2),
	// e.g. rotation or a component-specific channel width.
	Params Params `json:"params,omitempty"`
}

// PortByLabel returns the port with the given label and whether it exists.
func (c *Component) PortByLabel(label string) (Port, bool) {
	for _, p := range c.Ports {
		if p.Label == label {
			return p, true
		}
	}
	return Port{}, false
}

// Footprint returns the component's bounding box at the given origin.
func (c *Component) Footprint(origin geom.Point) geom.Rect {
	return geom.RectAt(origin, c.XSpan, c.YSpan)
}

// Target identifies one endpoint of a connection: a port on a component.
type Target struct {
	// Component is the ID of the endpoint component.
	Component string `json:"component"`
	// Port is the label of the port on that component. ParchMint permits an
	// empty port, meaning "any port" — the validator flags this as a warning
	// and the routers resolve it to the nearest free port.
	Port string `json:"port,omitempty"`
}

// String renders the target as "component.port".
func (t Target) String() string {
	if t.Port == "" {
		return t.Component
	}
	return t.Component + "." + t.Port
}

// Connection is a channel net joining a source target to one or more sinks
// on a single layer.
type Connection struct {
	// ID uniquely identifies the connection within the device.
	ID string `json:"id"`
	// Name is the human-readable net name.
	Name string `json:"name"`
	// Layer is the ID of the layer the channel is fabricated on.
	Layer string `json:"layer"`
	// Source is the driving endpoint.
	Source Target `json:"source"`
	// Sinks are the driven endpoints; a valid connection has at least one.
	Sinks []Target `json:"sinks"`
	// Paths optionally carry the routed polylines of this connection
	// (ParchMint v1.2), one per sink arm.
	Paths []ChannelPath `json:"paths,omitempty"`
}

// Targets returns source and sinks as one slice, source first.
func (c *Connection) Targets() []Target {
	out := make([]Target, 0, 1+len(c.Sinks))
	out = append(out, c.Source)
	out = append(out, c.Sinks...)
	return out
}

// FeatureKind distinguishes the two physical feature flavors carried by the
// ParchMint "features" array.
type FeatureKind int

// Feature kinds.
const (
	// FeatureComponent places a component: location plus spans and depth.
	FeatureComponent FeatureKind = iota
	// FeatureChannel is one routed straight segment of a connection.
	FeatureChannel
)

// String names the feature kind.
func (k FeatureKind) String() string {
	switch k {
	case FeatureComponent:
		return "component"
	case FeatureChannel:
		return "channel"
	default:
		return fmt.Sprintf("FeatureKind(%d)", int(k))
	}
}

// Feature carries physical geometry for either a placed component or one
// routed channel segment. Which fields are meaningful depends on Kind;
// the JSON encoding is a tagged union (see canonenc.go).
type Feature struct {
	Kind FeatureKind
	// ID uniquely identifies the feature. For component features the suite
	// convention is ID == the placed component's ID.
	ID string
	// Name is the human-readable feature name.
	Name string
	// Layer is the ID of the layer the geometry lives on.
	Layer string

	// Component feature fields.
	Location geom.Point // top-left corner of the placed footprint
	XSpan    int64
	YSpan    int64

	// Channel feature fields.
	Connection string     // ID of the connection this segment realizes
	Width      int64      // channel width in micrometers
	Source     geom.Point // segment start, absolute coordinates
	Sink       geom.Point // segment end, absolute coordinates

	// Depth applies to both kinds: feature depth in micrometers.
	Depth int64
}

// Footprint returns the placed rectangle of a component feature. For
// channel features it returns the degenerate bounding box of the segment.
func (f *Feature) Footprint() geom.Rect {
	if f.Kind == FeatureComponent {
		return geom.RectAt(f.Location, f.XSpan, f.YSpan)
	}
	return geom.BoundingBox([]geom.Point{f.Source, f.Sink})
}

// Params holds free-form numeric device parameters (for example default
// channel width or the target die spans used by a P&R flow).
type Params map[string]float64

// Get returns the parameter value and whether it is present.
func (p Params) Get(key string) (float64, bool) {
	v, ok := p[key]
	return v, ok
}

// GetDefault returns the parameter value, or def when absent.
func (p Params) GetDefault(key string, def float64) float64 {
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

// Device is a complete ParchMint netlist.
type Device struct {
	// Name is the benchmark/device name.
	Name string
	// Layers, Components, Connections form the logical netlist.
	Layers      []Layer
	Components  []Component
	Connections []Connection
	// Features optionally carry physical geometry from a P&R flow.
	Features []Feature
	// Params holds free-form numeric parameters.
	Params Params
	// ValveMap maps valve component IDs to the connection they actuate
	// (ParchMint v1.2); ValveTypes records each valve's resting state.
	ValveMap   map[string]string
	ValveTypes map[string]ValveType
}

// Stats summarizes the gross size of a device.
type Stats struct {
	Layers      int
	Components  int
	Connections int
	Ports       int // total ports across all components
	Sinks       int // total sink endpoints across all connections
	Features    int
}

// Stats returns the gross size counts for d.
func (d *Device) Stats() Stats {
	s := Stats{
		Layers:      len(d.Layers),
		Components:  len(d.Components),
		Connections: len(d.Connections),
		Features:    len(d.Features),
	}
	for i := range d.Components {
		s.Ports += len(d.Components[i].Ports)
	}
	for i := range d.Connections {
		s.Sinks += len(d.Connections[i].Sinks)
	}
	return s
}

// CountEntity returns how many components have the given entity type.
func (d *Device) CountEntity(entity string) int {
	n := 0
	for i := range d.Components {
		if d.Components[i].Entity == entity {
			n++
		}
	}
	return n
}

// HasFeatures reports whether the device carries any physical geometry.
func (d *Device) HasFeatures() bool { return len(d.Features) > 0 }
