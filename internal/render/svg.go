// Package render draws feature-annotated ParchMint devices as SVG — the
// visual artifact a designer checks after place-and-route, and the medium
// benchmark maintainers use to document suite entries. Rendering consumes
// only the physical features; run the pnr flow first for logical-only
// devices.
package render

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
)

// Options tunes the rendering.
type Options struct {
	// Scale converts micrometers to SVG pixels; 0 means 0.02 (50 µm/px).
	Scale float64
	// ShowLabels draws component IDs at their centers.
	ShowLabels bool
	// Layers restricts rendering to the given layer IDs; nil means all,
	// drawn in device layer order (flow under control).
	Layers []string
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 0.02
	}
	return o.Scale
}

// entityFill maps entities to fill colors. Unknown entities share a
// neutral gray.
var entityFill = map[string]string{
	core.EntityPort:           "#7f8c8d",
	core.EntityMixer:          "#2980b9",
	core.EntityGradient:       "#3498db",
	core.EntityValve:          "#c0392b",
	core.EntityValve3D:        "#e74c3c",
	core.EntityPump:           "#8e44ad",
	core.EntityRotaryPump:     "#9b59b6",
	core.EntityMux:            "#16a085",
	core.EntityTree:           "#1abc9c",
	core.EntityChamber:        "#d35400",
	core.EntityDiamondChamber: "#e67e22",
	core.EntityCellTrap:       "#f39c12",
	core.EntityTransposer:     "#27ae60",
	core.EntityNode:           "#2c3e50",
}

// layerStroke maps layer types to channel stroke colors.
func layerStroke(t core.LayerType) string {
	if t == core.LayerControl {
		return "#e74c3c"
	}
	return "#2c3e50"
}

// ErrNoFeatures is wrapped by SVG's error for a device that carries no
// physical geometry to draw: a fault of the input, not of the renderer.
var ErrNoFeatures = errors.New("no features")

// SVG renders the device's features. It returns an error wrapping
// ErrNoFeatures when the device carries no physical geometry.
func SVG(d *core.Device, opts Options) (string, error) {
	if len(d.Features) == 0 {
		return "", fmt.Errorf("render: device %q has %w; run place-and-route first", d.Name, ErrNoFeatures)
	}
	wanted := map[string]bool{}
	for _, l := range opts.Layers {
		wanted[l] = true
	}
	keep := func(layer string) bool { return len(wanted) == 0 || wanted[layer] }

	// Bounds over everything rendered.
	var bounds geom.Rect
	n := 0
	for i := range d.Features {
		f := &d.Features[i]
		if !keep(f.Layer) {
			continue
		}
		bounds = bounds.Union(f.Footprint())
		n++
	}
	if n == 0 {
		return "", fmt.Errorf("render: no features on the requested layers")
	}
	bounds = bounds.Inflate(500) // margin, µm

	s := opts.scale()
	px := func(v int64) float64 { return float64(v) * s }
	x := func(v int64) float64 { return px(v - bounds.Min.X) }
	y := func(v int64) float64 { return px(v - bounds.Min.Y) }

	ix := d.Index()
	layerType := func(id string) core.LayerType {
		if l := ix.Layer(id); l != nil {
			return l.Type
		}
		return core.LayerFlow
	}
	// Layer draw order: device order, unknown layers last.
	order := map[string]int{}
	for i, l := range d.Layers {
		order[l.ID] = i
	}
	feats := make([]*core.Feature, 0, len(d.Features))
	for i := range d.Features {
		if keep(d.Features[i].Layer) {
			feats = append(feats, &d.Features[i])
		}
	}
	sort.SliceStable(feats, func(a, b int) bool {
		oa, ok1 := order[feats[a].Layer]
		ob, ok2 := order[feats[b].Layer]
		if !ok1 {
			oa = len(order)
		}
		if !ok2 {
			ob = len(order)
		}
		if oa != ob {
			return oa < ob
		}
		// Channels under components within a layer.
		return feats[a].Kind == core.FeatureChannel && feats[b].Kind == core.FeatureComponent
	})

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		px(bounds.Dx()), px(bounds.Dy()), px(bounds.Dx()), px(bounds.Dy()))
	fmt.Fprintf(&sb, `<title>%s</title>`+"\n", escape(d.Name))
	sb.WriteString(`<rect width="100%" height="100%" fill="#fdfdfd"/>` + "\n")

	for _, f := range feats {
		switch f.Kind {
		case core.FeatureChannel:
			w := px(f.Width)
			if w < 1 {
				w = 1
			}
			fmt.Fprintf(&sb,
				`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f" stroke-linecap="round" opacity="0.8"><title>%s</title></line>`+"\n",
				x(f.Source.X), y(f.Source.Y), x(f.Sink.X), y(f.Sink.Y),
				layerStroke(layerType(f.Layer)), w, escape(f.Connection))
		case core.FeatureComponent:
			fill := entityFill["?"]
			entity := ""
			if c := ix.Component(f.ID); c != nil {
				entity = c.Entity
			}
			if v, ok := entityFill[entity]; ok {
				fill = v
			} else {
				fill = "#95a5a6"
			}
			fmt.Fprintf(&sb,
				`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#34495e" stroke-width="0.5" opacity="0.9"><title>%s (%s)</title></rect>`+"\n",
				x(f.Location.X), y(f.Location.Y), px(f.XSpan), px(f.YSpan),
				fill, escape(f.ID), escape(entity))
			if opts.ShowLabels {
				cx := x(f.Location.X + f.XSpan/2)
				cy := y(f.Location.Y + f.YSpan/2)
				fmt.Fprintf(&sb,
					`<text x="%.1f" y="%.1f" font-size="8" text-anchor="middle" fill="#ffffff">%s</text>`+"\n",
					cx, cy, escape(f.ID))
			}
		}
	}
	sb.WriteString("</svg>\n")
	return sb.String(), nil
}

// escape makes text safe for SVG/XML.
func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
