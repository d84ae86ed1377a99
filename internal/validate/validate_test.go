package validate

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// goodDevice builds a valid two-layer device: in -> mixer -> valve -> out,
// control port -> valve control.
func goodDevice(t testing.TB) *core.Device {
	t.Helper()
	b := core.NewBuilder("valid")
	flow := b.FlowLayer()
	ctrl := b.ControlLayer()
	b.IOPort("in", flow, 200)
	b.IOPort("out", flow, 200)
	b.IOPort("cin", ctrl, 200)
	b.TwoPort("mix1", core.EntityMixer, flow, 2000, 1000)
	b.Component("v1", core.EntityValve, []string{flow, ctrl}, 300, 300,
		core.Port{Label: "port1", Layer: flow, X: 0, Y: 150},
		core.Port{Label: "port2", Layer: flow, X: 300, Y: 150},
		core.Port{Label: "ctl", Layer: ctrl, X: 150, Y: 0},
	)
	b.Connect("c1", flow, "in.port1", "mix1.port1")
	b.Connect("c2", flow, "mix1.port2", "v1.port1")
	b.Connect("c3", flow, "v1.port2", "out.port1")
	b.Connect("cc1", ctrl, "cin.port1", "v1.ctl")
	d, err := b.Build()
	if err != nil {
		t.Fatalf("building valid device: %v", err)
	}
	return d
}

func TestValidDeviceIsClean(t *testing.T) {
	r := Validate(goodDevice(t))
	if !r.OK() {
		t.Fatalf("valid device reported errors:\n%s", r)
	}
	if r.Warnings() != 0 {
		t.Errorf("valid device reported warnings:\n%s", r)
	}
}

// expectCode validates the mutated device and requires the given code at
// the given severity.
func expectCode(t *testing.T, d *core.Device, code Code, sev Severity) {
	t.Helper()
	r := Validate(d)
	if !r.HasCode(code) {
		t.Fatalf("expected code %q, got:\n%s", code, r)
	}
	for _, diag := range r.Diags {
		if diag.Code == code && diag.Severity == sev {
			return
		}
	}
	t.Errorf("code %q present but not at severity %v:\n%s", code, sev, r)
}

func TestRuleDupLayerID(t *testing.T) {
	d := goodDevice(t)
	d.Layers = append(d.Layers, core.Layer{ID: "flow", Name: "again", Type: core.LayerFlow})
	expectCode(t, d, CodeDupID, SevError)
}

func TestRuleDupComponentID(t *testing.T) {
	d := goodDevice(t)
	d.Components = append(d.Components, d.Components[0])
	expectCode(t, d, CodeDupID, SevError)
}

func TestRuleDupConnectionID(t *testing.T) {
	d := goodDevice(t)
	d.Connections = append(d.Connections, d.Connections[0])
	expectCode(t, d, CodeDupID, SevError)
}

func TestRuleDupPortLabel(t *testing.T) {
	d := goodDevice(t)
	ix := d.Index()
	v1 := ix.Component("v1")
	v1.Ports = append(v1.Ports, core.Port{Label: "port1", Layer: "flow", X: 150, Y: 300})
	expectCode(t, d, CodeDupPort, SevError)
}

func TestRuleMissingComponentRef(t *testing.T) {
	d := goodDevice(t)
	d.Connections[0].Source.Component = "ghost"
	expectCode(t, d, CodeMissingRef, SevError)
}

func TestRuleMissingPortRef(t *testing.T) {
	d := goodDevice(t)
	d.Connections[0].Sinks[0].Port = "ghost"
	expectCode(t, d, CodeMissingRef, SevError)
}

func TestRuleMissingConnectionLayer(t *testing.T) {
	d := goodDevice(t)
	d.Connections[0].Layer = "ghost"
	expectCode(t, d, CodeMissingRef, SevError)
}

func TestRuleMissingComponentLayer(t *testing.T) {
	d := goodDevice(t)
	d.Components[0].Layers[0] = "ghost"
	expectCode(t, d, CodeMissingRef, SevError)
}

func TestRuleMissingPortLayer(t *testing.T) {
	d := goodDevice(t)
	d.Index().Component("mix1").Ports[0].Layer = "ghost"
	expectCode(t, d, CodeMissingRef, SevError)
}

func TestRulePortLayerNotOnComponent(t *testing.T) {
	d := goodDevice(t)
	// mix1 occupies only flow; point a port at control.
	d.Index().Component("mix1").Ports[0].Layer = "control"
	expectCode(t, d, CodeLayerMismatch, SevError)
}

func TestRuleConnectionLayerMismatch(t *testing.T) {
	d := goodDevice(t)
	// Flow connection attached to the valve's control port.
	d.Index().Connection("c2").Sinks[0].Port = "ctl"
	expectCode(t, d, CodeLayerMismatch, SevError)
}

func TestRuleBadSpan(t *testing.T) {
	d := goodDevice(t)
	d.Components[0].XSpan = 0
	expectCode(t, d, CodeBadGeometry, SevError)
	d = goodDevice(t)
	d.Components[0].YSpan = -5
	expectCode(t, d, CodeBadGeometry, SevError)
}

func TestRulePortOffFootprint(t *testing.T) {
	d := goodDevice(t)
	d.Index().Component("mix1").Ports[0].X = -10
	expectCode(t, d, CodeBadGeometry, SevError)
	d = goodDevice(t)
	d.Index().Component("mix1").Ports[1].Y = 99999
	expectCode(t, d, CodeBadGeometry, SevError)
}

func TestRulePortOnBoundaryIsFine(t *testing.T) {
	d := goodDevice(t)
	// mix1 port2 already sits at X == XSpan; that must be legal.
	r := Validate(d)
	if r.HasCode(CodeBadGeometry) {
		t.Errorf("boundary port misflagged:\n%s", r)
	}
}

func TestRuleEmptyNet(t *testing.T) {
	d := goodDevice(t)
	d.Connections[0].Sinks = nil
	expectCode(t, d, CodeEmptyNet, SevError)
}

func TestRuleSelfLoop(t *testing.T) {
	d := goodDevice(t)
	c := d.Index().Connection("c1")
	c.Sinks = append(c.Sinks, c.Source)
	expectCode(t, d, CodeSelfLoop, SevWarning)
}

func TestRuleDupSink(t *testing.T) {
	d := goodDevice(t)
	c := d.Index().Connection("c1")
	c.Sinks = append(c.Sinks, c.Sinks[0])
	expectCode(t, d, CodeDupSink, SevWarning)
}

func TestRuleAnyPort(t *testing.T) {
	d := goodDevice(t)
	d.Connections[0].Source.Port = ""
	expectCode(t, d, CodeAnyPort, SevWarning)
}

func TestRuleUnknownEntity(t *testing.T) {
	d := goodDevice(t)
	d.Components[0].Entity = "FLUX CAPACITOR"
	expectCode(t, d, CodeUnknownEntity, SevWarning)
	d = goodDevice(t)
	d.Components[0].Entity = ""
	expectCode(t, d, CodeUnknownEntity, SevWarning)
}

func TestRuleIsolatedComponent(t *testing.T) {
	d := goodDevice(t)
	d.Components = append(d.Components, core.Component{
		ID: "lonely", Name: "lonely", Entity: core.EntityChamber,
		Layers: []string{"flow"}, XSpan: 100, YSpan: 100,
	})
	expectCode(t, d, CodeIsolated, SevWarning)
}

func TestRuleEmptyNames(t *testing.T) {
	d := goodDevice(t)
	d.Name = ""
	expectCode(t, d, CodeEmptyName, SevWarning)

	d = goodDevice(t)
	d.Layers[0].ID = ""
	expectCode(t, d, CodeEmptyName, SevError)

	d = goodDevice(t)
	d.Components[0].ID = ""
	expectCode(t, d, CodeEmptyName, SevError)

	d = goodDevice(t)
	d.Connections[0].ID = ""
	expectCode(t, d, CodeEmptyName, SevError)

	d = goodDevice(t)
	d.Index().Component("mix1").Ports[0].Label = ""
	expectCode(t, d, CodeEmptyName, SevError)
}

func TestRuleNoLayers(t *testing.T) {
	d := &core.Device{Name: "bare"}
	expectCode(t, d, CodeNoLayers, SevError)

	d = goodDevice(t)
	d.Components[0].Layers = nil
	expectCode(t, d, CodeNoLayers, SevError)
}

func TestRuleFeatureMissingLayer(t *testing.T) {
	d := goodDevice(t)
	d.Features = []core.Feature{{
		Kind: core.FeatureComponent, ID: "mix1", Layer: "ghost",
		XSpan: 2000, YSpan: 1000,
	}}
	expectCode(t, d, CodeBadFeature, SevError)
}

func TestRuleFeatureUnknownComponent(t *testing.T) {
	d := goodDevice(t)
	d.Features = []core.Feature{{
		Kind: core.FeatureComponent, ID: "ghost", Layer: "flow", XSpan: 10, YSpan: 10,
	}}
	expectCode(t, d, CodeBadFeature, SevError)
}

func TestRuleFeatureSpanMismatch(t *testing.T) {
	d := goodDevice(t)
	d.Features = []core.Feature{{
		Kind: core.FeatureComponent, ID: "mix1", Layer: "flow",
		Location: geom.Pt(0, 0), XSpan: 1, YSpan: 1,
	}}
	expectCode(t, d, CodeBadFeature, SevWarning)
}

func TestRuleChannelFeatureMissingConnection(t *testing.T) {
	d := goodDevice(t)
	d.Features = []core.Feature{{
		Kind: core.FeatureChannel, ID: "s0", Layer: "flow",
		Connection: "ghost", Width: 100,
		Source: geom.Pt(0, 0), Sink: geom.Pt(100, 0),
	}}
	expectCode(t, d, CodeBadFeature, SevError)
}

func TestRuleChannelFeatureBadWidth(t *testing.T) {
	d := goodDevice(t)
	d.Features = []core.Feature{{
		Kind: core.FeatureChannel, ID: "s0", Layer: "flow",
		Connection: "c1", Width: 0,
		Source: geom.Pt(0, 0), Sink: geom.Pt(100, 0),
	}}
	expectCode(t, d, CodeBadGeometry, SevError)
}

func TestRuleChannelFeatureDiagonal(t *testing.T) {
	d := goodDevice(t)
	d.Features = []core.Feature{{
		Kind: core.FeatureChannel, ID: "s0", Layer: "flow",
		Connection: "c1", Width: 100,
		Source: geom.Pt(0, 0), Sink: geom.Pt(100, 100),
	}}
	expectCode(t, d, CodeBadFeature, SevWarning)
}

func TestRuleUnknownFeatureKind(t *testing.T) {
	d := goodDevice(t)
	d.Features = []core.Feature{{Kind: core.FeatureKind(7), ID: "x", Layer: "flow"}}
	expectCode(t, d, CodeBadFeature, SevError)
}

func TestRuleOverlap(t *testing.T) {
	d := goodDevice(t)
	d.Features = []core.Feature{
		{Kind: core.FeatureComponent, ID: "in", Layer: "flow",
			Location: geom.Pt(0, 0), XSpan: 200, YSpan: 200},
		{Kind: core.FeatureComponent, ID: "out", Layer: "flow",
			Location: geom.Pt(100, 100), XSpan: 200, YSpan: 200},
	}
	expectCode(t, d, CodeOverlap, SevError)
}

func TestRuleOverlapDifferentLayersOK(t *testing.T) {
	d := goodDevice(t)
	d.Features = []core.Feature{
		{Kind: core.FeatureComponent, ID: "in", Layer: "flow",
			Location: geom.Pt(0, 0), XSpan: 200, YSpan: 200},
		{Kind: core.FeatureComponent, ID: "cin", Layer: "control",
			Location: geom.Pt(0, 0), XSpan: 200, YSpan: 200},
	}
	r := Validate(d)
	if r.HasCode(CodeOverlap) {
		t.Errorf("cross-layer placement misflagged:\n%s", r)
	}
}

func TestRuleOverlapTouchingEdgesOK(t *testing.T) {
	d := goodDevice(t)
	d.Features = []core.Feature{
		{Kind: core.FeatureComponent, ID: "in", Layer: "flow",
			Location: geom.Pt(0, 0), XSpan: 200, YSpan: 200},
		{Kind: core.FeatureComponent, ID: "out", Layer: "flow",
			Location: geom.Pt(200, 0), XSpan: 200, YSpan: 200},
	}
	r := Validate(d)
	if r.HasCode(CodeOverlap) {
		t.Errorf("abutting placement misflagged:\n%s", r)
	}
}

func TestOverlapCapSkips(t *testing.T) {
	d := goodDevice(t)
	d.Features = []core.Feature{
		{Kind: core.FeatureComponent, ID: "in", Layer: "flow", Location: geom.Pt(0, 0), XSpan: 200, YSpan: 200},
		{Kind: core.FeatureComponent, ID: "out", Layer: "flow", Location: geom.Pt(100, 100), XSpan: 200, YSpan: 200},
		{Kind: core.FeatureComponent, ID: "mix1", Layer: "flow", Location: geom.Pt(500, 500), XSpan: 2000, YSpan: 1000},
	}
	r := ValidateWith(d, Options{MaxOverlapPairs: 2})
	// Overlap exists but the check is capped: expect the skip warning, not
	// the overlap error.
	hasSkip := false
	for _, diag := range r.Diags {
		if diag.Code == CodeOverlap && diag.Severity == SevWarning {
			hasSkip = true
		}
		if diag.Code == CodeOverlap && diag.Severity == SevError {
			t.Error("capped overlap check still ran")
		}
	}
	if !hasSkip {
		t.Errorf("expected cap-skip warning:\n%s", r)
	}
}

func TestSkipWarnings(t *testing.T) {
	d := goodDevice(t)
	d.Components[0].Entity = "WEIRD"
	d.Connections[0].Source.Component = "ghost"
	r := ValidateWith(d, Options{SkipWarnings: true})
	if r.Warnings() != 0 {
		t.Errorf("SkipWarnings left warnings:\n%s", r)
	}
	if r.Errors() == 0 {
		t.Error("SkipWarnings must keep errors")
	}
}

func TestReportAccessors(t *testing.T) {
	d := goodDevice(t)
	d.Components[0].Entity = "WEIRD"            // warning
	d.Connections[0].Source.Component = "ghost" // error (missing-ref)
	d.Connections[1].Layer = "ghost"            // error (missing-ref)
	r := Validate(d)
	if r.OK() {
		t.Fatal("report with errors must not be OK")
	}
	if r.Errors() < 2 || r.Warnings() < 1 {
		t.Errorf("counts: %d errors, %d warnings\n%s", r.Errors(), r.Warnings(), r)
	}
	codes := r.Codes()
	if len(codes) < 2 {
		t.Errorf("Codes = %v", codes)
	}
	for i := 1; i < len(codes); i++ {
		if codes[i-1] >= codes[i] {
			t.Errorf("Codes not sorted: %v", codes)
		}
	}
	s := r.String()
	if !strings.Contains(s, "missing-ref") || !strings.Contains(s, "error(s)") {
		t.Errorf("report rendering missing pieces:\n%s", s)
	}
}

func TestSeverityString(t *testing.T) {
	if SevWarning.String() != "warning" || SevError.String() != "error" {
		t.Error("severity names wrong")
	}
	if got := Severity(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown severity = %q", got)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Severity: SevError, Code: CodeDupID, Path: "layers[1]", Message: "boom"}
	if got := d.String(); got != "error dup-id layers[1]: boom" {
		t.Errorf("Diagnostic.String = %q", got)
	}
}

func TestRuleValveMap(t *testing.T) {
	// A correct v1.2 valve map is clean.
	d := goodDevice(t)
	if err := d.SetValve("v1", "c2", core.ValveNormallyOpen); err != nil {
		t.Fatal(err)
	}
	if r := Validate(d); !r.OK() || r.Warnings() != 0 {
		t.Fatalf("valid valve map flagged:\n%s", r)
	}

	// Missing valve component.
	d = goodDevice(t)
	d.ValveMap = map[string]string{"ghost": "c2"}
	expectCode(t, d, CodeBadValveMap, SevError)

	// Missing actuated connection.
	d = goodDevice(t)
	d.ValveMap = map[string]string{"v1": "ghost"}
	expectCode(t, d, CodeBadValveMap, SevError)

	// Mapped component is not a control entity.
	d = goodDevice(t)
	d.ValveMap = map[string]string{"mix1": "c2"}
	expectCode(t, d, CodeBadValveMap, SevWarning)

	// Unknown valve type.
	d = goodDevice(t)
	d.ValveMap = map[string]string{"v1": "c2"}
	d.ValveTypes = map[string]core.ValveType{"v1": "SIDEWAYS"}
	expectCode(t, d, CodeBadValveMap, SevError)

	// Typed valve absent from the map.
	d = goodDevice(t)
	d.ValveTypes = map[string]core.ValveType{"v1": core.ValveNormallyOpen}
	expectCode(t, d, CodeBadValveMap, SevWarning)
}

func TestRuleBadPath(t *testing.T) {
	// Axis-aligned paths are clean.
	d := goodDevice(t)
	d.Connections[0].Paths = []core.ChannelPath{{
		Source:    geom.Pt(0, 0),
		Sink:      geom.Pt(100, 100),
		Waypoints: []geom.Point{geom.Pt(100, 0)},
	}}
	if r := Validate(d); r.HasCode(CodeBadPath) {
		t.Fatalf("rectilinear path flagged:\n%s", r)
	}

	// Diagonal leg warns.
	d = goodDevice(t)
	d.Connections[0].Paths = []core.ChannelPath{{
		Source: geom.Pt(0, 0), Sink: geom.Pt(100, 100),
	}}
	expectCode(t, d, CodeBadPath, SevWarning)

	// More paths than sinks warns.
	d = goodDevice(t)
	d.Connections[0].Paths = []core.ChannelPath{
		{Source: geom.Pt(0, 0), Sink: geom.Pt(100, 0)},
		{Source: geom.Pt(0, 0), Sink: geom.Pt(0, 100)},
	}
	expectCode(t, d, CodeBadPath, SevWarning)
}

// TestLocRendersDiagnosticPaths pins the lazily formatted paths to the
// strings diagnostics have always carried.
func TestLocRendersDiagnosticPaths(t *testing.T) {
	byIndex := loc{coll: "components", idx: 3}
	byID := loc{coll: "connections", id: "c1", idx: 7}
	cases := []struct {
		got  loc
		want string
	}{
		{byIndex, "components[3]"},
		{byIndex.member("ports", 0), "components[3].ports[0]"},
		{byIndex.member("layers", 12), "components[3].layers[12]"},
		{byID, "connections[c1]"},
		{byID.member("source", -1), "connections[c1].source"},
		{byID.member("sinks", 2), "connections[c1].sinks[2]"},
		{byID.member("paths", 1), "connections[c1].paths[1]"},
	}
	for _, tc := range cases {
		if got := tc.got.String(); got != tc.want {
			t.Errorf("loc %+v renders %q, want %q", tc.got, got, tc.want)
		}
	}
}
