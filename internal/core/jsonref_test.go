package core

// The encoding/json reference codec. Production encodes and decodes
// devices only through the canonical codec (canonenc.go, canondec.go);
// this file keeps the reflection codec that codec was pinned to, so the
// differential suites (TestMarshalCanonicalMatchesStd, FuzzCanonCodec,
// FuzzDeviceJSON's corpus) can still compare against json.Marshal and
// json.Unmarshal. Being in package core's test files, the methods below
// are visible to the core_test package too.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/geom"
)

// wireDevice is the JSON wire shape of a device (v1 plus the optional
// v1.2 keys).
type wireDevice struct {
	Name        string               `json:"name"`
	Layers      []Layer              `json:"layers"`
	Components  []Component          `json:"components"`
	Connections []Connection         `json:"connections"`
	Features    []Feature            `json:"features,omitempty"`
	Params      Params               `json:"params,omitempty"`
	ValveMap    map[string]string    `json:"valveMap,omitempty"`
	ValveTypes  map[string]ValveType `json:"valveTypeMap,omitempty"`
	Version     string               `json:"version,omitempty"`
}

// MarshalJSON encodes the device in ParchMint v1 JSON.
func (d *Device) MarshalJSON() ([]byte, error) {
	version := VersionV1
	if d.UsesV12() {
		version = VersionV12
	}
	return json.Marshal(wireDevice{
		Name:        d.Name,
		Layers:      emptyIfNil(d.Layers),
		Components:  emptyIfNil(d.Components),
		Connections: emptyIfNil(d.Connections),
		Features:    d.Features,
		Params:      d.Params,
		ValveMap:    d.ValveMap,
		ValveTypes:  d.ValveTypes,
		Version:     version,
	})
}

// UnmarshalJSON decodes ParchMint v1 JSON into the device.
func (d *Device) UnmarshalJSON(data []byte) error {
	var w wireDevice
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	d.Name = w.Name
	d.Layers = w.Layers
	d.Components = w.Components
	d.Connections = w.Connections
	d.Features = w.Features
	d.Params = w.Params
	d.ValveMap = w.ValveMap
	d.ValveTypes = w.ValveTypes
	return nil
}

// emptyIfNil maps a nil slice to an empty one so required ParchMint arrays
// always serialize as [] rather than null.
func emptyIfNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// wirePoint is the {"x":..,"y":..} shape used for absolute coordinates.
type wirePoint struct {
	X int64 `json:"x"`
	Y int64 `json:"y"`
}

// wireFeature is the union wire shape of the "features" array. Channel
// features are identified by the presence of the "connection" key.
type wireFeature struct {
	Name       string     `json:"name"`
	ID         string     `json:"id"`
	Layer      string     `json:"layer"`
	Location   *wirePoint `json:"location,omitempty"`
	XSpan      *int64     `json:"x-span,omitempty"`
	YSpan      *int64     `json:"y-span,omitempty"`
	Connection string     `json:"connection,omitempty"`
	Width      *int64     `json:"width,omitempty"`
	Source     *wirePoint `json:"source,omitempty"`
	Sink       *wirePoint `json:"sink,omitempty"`
	Type       string     `json:"type,omitempty"`
	Depth      int64      `json:"depth"`
}

// MarshalJSON encodes the feature as the tagged-union wire shape.
func (f Feature) MarshalJSON() ([]byte, error) {
	w := wireFeature{Name: f.Name, ID: f.ID, Layer: f.Layer, Depth: f.Depth}
	switch f.Kind {
	case FeatureComponent:
		w.Location = &wirePoint{f.Location.X, f.Location.Y}
		w.XSpan = ptr(f.XSpan)
		w.YSpan = ptr(f.YSpan)
	case FeatureChannel:
		w.Connection = f.Connection
		w.Width = ptr(f.Width)
		w.Source = &wirePoint{f.Source.X, f.Source.Y}
		w.Sink = &wirePoint{f.Sink.X, f.Sink.Y}
		w.Type = "channel"
	default:
		return nil, fmt.Errorf("core: cannot marshal feature %q: unknown kind %d", f.ID, int(f.Kind))
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the tagged-union wire shape into the feature.
func (f *Feature) UnmarshalJSON(data []byte) error {
	var w wireFeature
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*f = Feature{Name: w.Name, ID: w.ID, Layer: w.Layer, Depth: w.Depth}
	if w.Connection != "" || w.Type == "channel" {
		f.Kind = FeatureChannel
		f.Connection = w.Connection
		if w.Width != nil {
			f.Width = *w.Width
		}
		if w.Source != nil {
			f.Source = geom.Pt(w.Source.X, w.Source.Y)
		}
		if w.Sink != nil {
			f.Sink = geom.Pt(w.Sink.X, w.Sink.Y)
		}
		return nil
	}
	f.Kind = FeatureComponent
	if w.Location != nil {
		f.Location = geom.Pt(w.Location.X, w.Location.Y)
	}
	if w.XSpan != nil {
		f.XSpan = *w.XSpan
	}
	if w.YSpan != nil {
		f.YSpan = *w.YSpan
	}
	return nil
}

func ptr[T any](v T) *T { return &v }

// wirePath is the JSON v1.2 shape of one connection path.
type wirePath struct {
	Source    wirePoint  `json:"source"`
	Sink      wirePoint  `json:"sink"`
	Waypoints [][2]int64 `json:"wayPoints,omitempty"`
}

// MarshalJSON encodes the path in v1.2 wire shape.
func (p ChannelPath) MarshalJSON() ([]byte, error) {
	w := wirePath{
		Source: wirePoint{p.Source.X, p.Source.Y},
		Sink:   wirePoint{p.Sink.X, p.Sink.Y},
	}
	for _, pt := range p.Waypoints {
		w.Waypoints = append(w.Waypoints, [2]int64{pt.X, pt.Y})
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the v1.2 wire shape.
func (p *ChannelPath) UnmarshalJSON(data []byte) error {
	var w wirePath
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*p = ChannelPath{
		Source: geom.Pt(w.Source.X, w.Source.Y),
		Sink:   geom.Pt(w.Sink.X, w.Sink.Y),
	}
	for _, pt := range w.Waypoints {
		p.Waypoints = append(p.Waypoints, geom.Pt(pt[0], pt[1]))
	}
	return nil
}

// decodeStd is the encoding/json reference decoder the fast path is
// differential-tested against. It keeps the exact shape Decode had
// before canondec.go existed.
func decodeStd(data []byte) (*Device, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var d Device
	if err := dec.Decode(&d); err != nil {
		return nil, &ParseError{Format: "json", Err: err}
	}
	return &d, nil
}
