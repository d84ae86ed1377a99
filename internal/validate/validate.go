// Package validate checks the semantic well-formedness of ParchMint devices.
//
// The ParchMint format is a netlist interchange standard; a device that
// parses is not necessarily meaningful. This package implements the rule
// set a consuming CAD tool needs before it can trust a benchmark: reference
// integrity (every connection endpoint names a real component and port),
// layer consistency (channels attach to ports on their own layer),
// geometric sanity (ports sit on their component, placed features do not
// collide), and netlist hygiene (no duplicate IDs, no empty nets).
//
// Validation never stops at the first problem: it produces a full Report of
// structured Diagnostics so benchmark authors can fix everything in one
// pass, and so the fault-injection experiments (Table 3) can measure
// per-rule detection.
package validate

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Severity ranks a diagnostic.
type Severity int

// Severities, in increasing order of trouble.
const (
	// SevWarning marks constructs that are legal but suspicious: unknown
	// entities, isolated components, "any port" targets.
	SevWarning Severity = iota
	// SevError marks violations that make the device unusable by a consumer.
	SevError
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Code identifies the rule a diagnostic comes from. Codes are stable API:
// the fault-injection experiment keys detection rates by them.
type Code string

// The rule vocabulary.
const (
	CodeDupID         Code = "dup-id"         // duplicate layer/component/connection ID
	CodeDupPort       Code = "dup-port"       // duplicate port label within a component
	CodeMissingRef    Code = "missing-ref"    // endpoint names a nonexistent component/port/layer
	CodeLayerMismatch Code = "layer-mismatch" // port layer disagrees with connection/component layer
	CodeBadGeometry   Code = "bad-geometry"   // non-positive span or port off its component
	CodeEmptyNet      Code = "empty-net"      // connection with no sinks
	CodeSelfLoop      Code = "self-loop"      // connection source equals a sink
	CodeDupSink       Code = "dup-sink"       // repeated sink target in one connection
	CodeAnyPort       Code = "any-port"       // endpoint omits the port label
	CodeUnknownEntity Code = "unknown-entity" // entity outside the suite vocabulary
	CodeIsolated      Code = "isolated"       // component touched by no connection
	CodeEmptyName     Code = "empty-name"     // empty device/element name or ID
	CodeBadFeature    Code = "bad-feature"    // feature referencing missing element or inconsistent geometry
	CodeOverlap       Code = "overlap"        // placed component features overlap
	CodeNoLayers      Code = "no-layers"      // device or component without layers
	CodeBadValveMap   Code = "bad-valve-map"  // v1.2 valve map references or types are wrong
	CodeBadPath       Code = "bad-path"       // v1.2 connection path geometry is suspicious
)

// Diagnostic is one validation finding.
type Diagnostic struct {
	Severity Severity
	Code     Code
	// Path locates the offending element, e.g. "components[3].ports[0]"
	// or "connections[c12].sinks[1]".
	Path    string
	Message string
}

// String renders "severity code path: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s %s %s: %s", d.Severity, d.Code, d.Path, d.Message)
}

// Report is the outcome of validating one device.
type Report struct {
	Device string
	Diags  []Diagnostic
}

// Errors returns the number of error-severity diagnostics.
func (r *Report) Errors() int { return r.count(SevError) }

// Warnings returns the number of warning-severity diagnostics.
func (r *Report) Warnings() int { return r.count(SevWarning) }

func (r *Report) count(s Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// OK reports whether the device has no errors (warnings allowed).
func (r *Report) OK() bool { return r.Errors() == 0 }

// HasCode reports whether any diagnostic carries the given code.
func (r *Report) HasCode(c Code) bool {
	for _, d := range r.Diags {
		if d.Code == c {
			return true
		}
	}
	return false
}

// Codes returns the distinct codes present, sorted.
func (r *Report) Codes() []Code {
	set := map[Code]bool{}
	for _, d := range r.Diags {
		set[d.Code] = true
	}
	out := make([]Code, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the report one diagnostic per line.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "device %q: %d error(s), %d warning(s)\n", r.Device, r.Errors(), r.Warnings())
	for _, d := range r.Diags {
		sb.WriteString("  ")
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (r *Report) add(sev Severity, code Code, path, format string, args ...any) {
	r.Diags = append(r.Diags, Diagnostic{
		Severity: sev,
		Code:     code,
		Path:     path,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Options tunes validation strictness.
type Options struct {
	// SkipWarnings suppresses all warning-severity rules.
	SkipWarnings bool
	// MaxOverlapPairs caps the O(n²) placed-feature overlap check; 0 means
	// the default of 2000 features. Devices beyond the cap skip the check
	// with a warning.
	MaxOverlapPairs int
}

// Validate runs the full rule set with default options.
func Validate(d *core.Device) *Report {
	return ValidateWith(d, Options{})
}

// ValidateWith runs the full rule set with the given options.
func ValidateWith(d *core.Device, opts Options) *Report {
	r := &Report{Device: d.Name}
	v := &validator{device: d, report: r, opts: opts}
	v.run()
	if opts.SkipWarnings {
		kept := r.Diags[:0]
		for _, diag := range r.Diags {
			if diag.Severity != SevWarning {
				kept = append(kept, diag)
			}
		}
		r.Diags = kept
	}
	return r
}

type validator struct {
	device *Device
	report *Report
	opts   Options

	layerIDs map[string]int // id -> index of first occurrence
	compIDs  map[string]int
	connIDs  map[string]int
}

// Device aliases core.Device so the validator struct reads naturally.
type Device = core.Device

func (v *validator) run() {
	v.checkDevice()
	v.checkLayers()
	v.checkComponents()
	v.checkConnections()
	v.checkIsolation()
	v.checkFeatures()
	v.checkValveMap()
}

func (v *validator) checkDevice() {
	if v.device.Name == "" {
		v.report.add(SevWarning, CodeEmptyName, "device", "device has no name")
	}
	if len(v.device.Layers) == 0 {
		v.report.add(SevError, CodeNoLayers, "device", "device declares no layers")
	}
}

func (v *validator) checkLayers() {
	v.layerIDs = make(map[string]int, len(v.device.Layers))
	for i, l := range v.device.Layers {
		path := fmt.Sprintf("layers[%d]", i)
		if l.ID == "" {
			v.report.add(SevError, CodeEmptyName, path, "layer has empty id")
			continue
		}
		if first, dup := v.layerIDs[l.ID]; dup {
			v.report.add(SevError, CodeDupID, path, "layer id %q already used by layers[%d]", l.ID, first)
			continue
		}
		v.layerIDs[l.ID] = i
		if l.Type != core.LayerFlow && l.Type != core.LayerControl {
			v.report.add(SevWarning, CodeUnknownEntity, path, "layer type %q is not FLOW or CONTROL", l.Type)
		}
	}
}

// loc is a diagnostic path into the components or connections list,
// formatted only when a diagnostic is reported: the element
// ("components[3]", or "components[mixer1]" once its ID is known to be
// unique), optionally followed by one member (".source") or one indexed
// member (".ports[2]"). Building the strings for every element checked
// cost more than the checks themselves.
type loc struct {
	coll   string // "components" or "connections"
	id     string // the element's ID; "" selects idx
	idx    int
	field  string // member name; "" for the element itself
	findex int    // index within the member; -1 when it is not a list
}

// member returns the path of l's member name, element i of it when
// i >= 0.
func (l loc) member(name string, i int) loc {
	l.field, l.findex = name, i
	return l
}

func (l loc) String() string {
	b := make([]byte, 0, 64)
	b = append(b, l.coll...)
	b = append(b, '[')
	if l.id != "" {
		b = append(b, l.id...)
	} else {
		b = strconv.AppendInt(b, int64(l.idx), 10)
	}
	b = append(b, ']')
	if l.field != "" {
		b = append(b, '.')
		b = append(b, l.field...)
		if l.findex >= 0 {
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(l.findex), 10)
			b = append(b, ']')
		}
	}
	return string(b)
}

func (v *validator) checkComponents() {
	v.compIDs = make(map[string]int, len(v.device.Components))
	for i := range v.device.Components {
		c := &v.device.Components[i]
		at := loc{coll: "components", idx: i}
		if c.ID == "" {
			v.report.add(SevError, CodeEmptyName, at.String(), "component has empty id")
		} else if first, dup := v.compIDs[c.ID]; dup {
			v.report.add(SevError, CodeDupID, at.String(), "component id %q already used by components[%d]", c.ID, first)
		} else {
			v.compIDs[c.ID] = i
			at.id = c.ID
		}
		if c.Entity == "" {
			v.report.add(SevWarning, CodeUnknownEntity, at.String(), "component has no entity")
		} else if !core.IsKnownEntity(c.Entity) {
			v.report.add(SevWarning, CodeUnknownEntity, at.String(), "entity %q is outside the suite vocabulary", c.Entity)
		}
		if len(c.Layers) == 0 {
			v.report.add(SevError, CodeNoLayers, at.String(), "component occupies no layers")
		}
		compLayers := make(map[string]bool, len(c.Layers))
		for j, lid := range c.Layers {
			if _, ok := v.layerIDs[lid]; !ok {
				v.report.add(SevError, CodeMissingRef, at.member("layers", j).String(),
					"layer %q is not declared", lid)
			}
			compLayers[lid] = true
		}
		if c.XSpan <= 0 || c.YSpan <= 0 {
			v.report.add(SevError, CodeBadGeometry, at.String(),
				"non-positive span %dx%d", c.XSpan, c.YSpan)
		}
		labels := make(map[string]int, len(c.Ports))
		for j, p := range c.Ports {
			pat := at.member("ports", j)
			if p.Label == "" {
				v.report.add(SevError, CodeEmptyName, pat.String(), "port has empty label")
			} else if first, dup := labels[p.Label]; dup {
				v.report.add(SevError, CodeDupPort, pat.String(),
					"port label %q already used by ports[%d]", p.Label, first)
			} else {
				labels[p.Label] = j
			}
			if _, ok := v.layerIDs[p.Layer]; !ok {
				v.report.add(SevError, CodeMissingRef, pat.String(), "port layer %q is not declared", p.Layer)
			} else if !compLayers[p.Layer] {
				v.report.add(SevError, CodeLayerMismatch, pat.String(),
					"port layer %q is not among the component's layers", p.Layer)
			}
			if c.XSpan > 0 && c.YSpan > 0 {
				if p.X < 0 || p.X > c.XSpan || p.Y < 0 || p.Y > c.YSpan {
					v.report.add(SevError, CodeBadGeometry, pat.String(),
						"port at (%d,%d) lies outside the %dx%d footprint", p.X, p.Y, c.XSpan, c.YSpan)
				}
			}
		}
	}
}

func (v *validator) checkConnections() {
	v.connIDs = make(map[string]int, len(v.device.Connections))
	for i := range v.device.Connections {
		cn := &v.device.Connections[i]
		at := loc{coll: "connections", idx: i}
		if cn.ID == "" {
			v.report.add(SevError, CodeEmptyName, at.String(), "connection has empty id")
		} else if first, dup := v.connIDs[cn.ID]; dup {
			v.report.add(SevError, CodeDupID, at.String(),
				"connection id %q already used by connections[%d]", cn.ID, first)
		} else {
			v.connIDs[cn.ID] = i
			at.id = cn.ID
		}
		if _, ok := v.layerIDs[cn.Layer]; !ok {
			v.report.add(SevError, CodeMissingRef, at.String(), "connection layer %q is not declared", cn.Layer)
		}
		if len(cn.Sinks) == 0 {
			v.report.add(SevError, CodeEmptyNet, at.String(), "connection has no sinks")
		}
		for pi := range cn.Paths {
			v.checkPath(&cn.Paths[pi], at.member("paths", pi))
		}
		if len(cn.Paths) > len(cn.Sinks) {
			v.report.add(SevWarning, CodeBadPath, at.String(),
				"%d paths for %d sinks", len(cn.Paths), len(cn.Sinks))
		}
		v.checkTarget(cn, cn.Source, at.member("source", -1))
		seen := make(map[core.Target]int, len(cn.Sinks))
		for j, s := range cn.Sinks {
			sat := at.member("sinks", j)
			v.checkTarget(cn, s, sat)
			if s == cn.Source {
				v.report.add(SevWarning, CodeSelfLoop, sat.String(), "sink equals the source %s", s)
			}
			if first, dup := seen[s]; dup {
				v.report.add(SevWarning, CodeDupSink, sat.String(), "sink %s already listed at sinks[%d]", s, first)
			} else {
				seen[s] = j
			}
		}
	}
}

// checkPath warns about v1.2 path legs that are not axis-aligned
// (continuous-flow channels are rectilinear by fabrication).
func (v *validator) checkPath(p *core.ChannelPath, at loc) {
	pts := p.Points()
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if a.X != b.X && a.Y != b.Y {
			v.report.add(SevWarning, CodeBadPath, at.String(),
				"leg %v -> %v is not axis-aligned", a, b)
			return
		}
	}
}

// checkTarget validates one endpoint of a connection.
func (v *validator) checkTarget(cn *core.Connection, t core.Target, at loc) {
	ci, ok := v.compIDs[t.Component]
	if !ok {
		v.report.add(SevError, CodeMissingRef, at.String(), "component %q does not exist", t.Component)
		return
	}
	c := &v.device.Components[ci]
	if t.Port == "" {
		v.report.add(SevWarning, CodeAnyPort, at.String(),
			"endpoint on %q does not name a port", t.Component)
		return
	}
	p, ok := c.PortByLabel(t.Port)
	if !ok {
		v.report.add(SevError, CodeMissingRef, at.String(),
			"component %q has no port %q", t.Component, t.Port)
		return
	}
	if p.Layer != cn.Layer {
		v.report.add(SevError, CodeLayerMismatch, at.String(),
			"port %s is on layer %q but the connection is on layer %q", t, p.Layer, cn.Layer)
	}
}

// checkIsolation warns about components no connection touches.
func (v *validator) checkIsolation() {
	touched := make(map[string]bool, len(v.device.Components))
	for i := range v.device.Connections {
		cn := &v.device.Connections[i]
		touched[cn.Source.Component] = true
		for _, s := range cn.Sinks {
			touched[s.Component] = true
		}
	}
	for i := range v.device.Components {
		c := &v.device.Components[i]
		if !touched[c.ID] {
			v.report.add(SevWarning, CodeIsolated,
				fmt.Sprintf("components[%s]", c.ID), "no connection touches this component")
		}
	}
}

// checkValveMap validates the v1.2 valve map: every valve must exist and
// actuate an existing connection; valve types must be the two enums; and a
// mapped component should actually be a control entity.
func (v *validator) checkValveMap() {
	for _, valve := range sortedMapKeys(v.device.ValveMap) {
		conn := v.device.ValveMap[valve]
		path := fmt.Sprintf("valveMap[%s]", valve)
		ci, ok := v.compIDs[valve]
		if !ok {
			v.report.add(SevError, CodeBadValveMap, path, "valve component %q does not exist", valve)
		} else if !core.IsControlEntity(v.device.Components[ci].Entity) {
			v.report.add(SevWarning, CodeBadValveMap, path,
				"component %q has entity %q, not a valve/pump", valve, v.device.Components[ci].Entity)
		}
		if _, ok := v.connIDs[conn]; !ok {
			v.report.add(SevError, CodeBadValveMap, path, "actuated connection %q does not exist", conn)
		}
	}
	for _, valve := range sortedMapKeys(v.device.ValveTypes) {
		t := v.device.ValveTypes[valve]
		path := fmt.Sprintf("valveTypeMap[%s]", valve)
		if t != core.ValveNormallyOpen && t != core.ValveNormallyClosed {
			v.report.add(SevError, CodeBadValveMap, path, "unknown valve type %q", t)
		}
		if _, ok := v.device.ValveMap[valve]; !ok {
			v.report.add(SevWarning, CodeBadValveMap, path, "typed valve %q is not in the valve map", valve)
		}
	}
}

// sortedMapKeys returns map keys sorted for deterministic diagnostics.
func sortedMapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (v *validator) checkFeatures() {
	placed := make([]int, 0, len(v.device.Features))
	for i := range v.device.Features {
		f := &v.device.Features[i]
		path := fmt.Sprintf("features[%d]", i)
		if _, ok := v.layerIDs[f.Layer]; !ok {
			v.report.add(SevError, CodeBadFeature, path, "feature layer %q is not declared", f.Layer)
		}
		switch f.Kind {
		case core.FeatureComponent:
			ci, ok := v.compIDs[f.ID]
			if !ok {
				v.report.add(SevError, CodeBadFeature, path,
					"component feature id %q matches no component", f.ID)
				continue
			}
			c := &v.device.Components[ci]
			if f.XSpan != c.XSpan || f.YSpan != c.YSpan {
				v.report.add(SevWarning, CodeBadFeature, path,
					"feature spans %dx%d differ from component spans %dx%d",
					f.XSpan, f.YSpan, c.XSpan, c.YSpan)
			}
			if f.XSpan <= 0 || f.YSpan <= 0 {
				v.report.add(SevError, CodeBadGeometry, path,
					"non-positive feature span %dx%d", f.XSpan, f.YSpan)
			}
			placed = append(placed, i)
		case core.FeatureChannel:
			if _, ok := v.connIDs[f.Connection]; !ok {
				v.report.add(SevError, CodeBadFeature, path,
					"channel feature references missing connection %q", f.Connection)
			}
			if f.Width <= 0 {
				v.report.add(SevError, CodeBadGeometry, path, "non-positive channel width %d", f.Width)
			}
			if f.Source.X != f.Sink.X && f.Source.Y != f.Sink.Y {
				v.report.add(SevWarning, CodeBadFeature, path,
					"channel segment %v->%v is not axis-aligned", f.Source, f.Sink)
			}
		default:
			v.report.add(SevError, CodeBadFeature, path, "unknown feature kind %d", int(f.Kind))
		}
	}
	v.checkOverlaps(placed)
}

// checkOverlaps flags pairs of placed component features (on the same
// layer) whose footprints intersect.
func (v *validator) checkOverlaps(placed []int) {
	limit := v.opts.MaxOverlapPairs
	if limit == 0 {
		limit = 2000
	}
	if len(placed) > limit {
		v.report.add(SevWarning, CodeOverlap, "features",
			"%d placed features exceed the overlap-check cap of %d; check skipped",
			len(placed), limit)
		return
	}
	for a := 0; a < len(placed); a++ {
		fa := &v.device.Features[placed[a]]
		ra := fa.Footprint()
		for b := a + 1; b < len(placed); b++ {
			fb := &v.device.Features[placed[b]]
			if fa.Layer != fb.Layer {
				continue
			}
			if ra.Overlaps(fb.Footprint()) {
				v.report.add(SevError, CodeOverlap,
					fmt.Sprintf("features[%d]", placed[b]),
					"placed component %q overlaps %q on layer %q", fb.ID, fa.ID, fa.Layer)
			}
		}
	}
}
