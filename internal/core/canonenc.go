package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Canonical compact encoder: writes a Device (and the JSON primitives the
// serving tier composes response bodies from) directly into a caller's
// byte slice, with no reflection and no intermediate values. The output
// contract is strict byte identity with encoding/json — the canonical
// bytes are cache addresses and journal replay units, so every escaping
// rule, float format quirk, and map-key ordering of json.Marshal is
// replicated here and pinned by differential fuzzing (FuzzCanonCodec).

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal with encoding/json's
// escaping: HTML-significant bytes (<, >, &) and the JS line separators
// U+2028/U+2029 as \u escapes, invalid UTF-8 as U+FFFD, control characters
// as \n, \r, \t, \b, \f or \u00xx.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendJSONFloat appends f exactly as encoding/json renders float64
// values: shortest representation, 'e' format outside [1e-6, 1e21) with
// the exponent's leading zero stripped. NaN and infinities are
// unsupported, as in json.Marshal.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("core: unsupported float value %v", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendCompactJSON appends a compacted copy of the valid JSON document
// src, replicating how encoding/json embeds a json.RawMessage: whitespace
// outside strings dropped, <, >, & and the byte sequences of U+2028/U+2029
// escaped, everything else byte-for-byte. src must already be valid JSON.
// Runs of bytes that pass through unchanged are copied with one append.
func AppendCompactJSON(dst, src []byte) []byte {
	dst = slices.Grow(dst, len(src))
	inString := false
	start := 0
	for i := 0; i < len(src); i++ {
		c := src[i]
		if compactPlain[c] {
			continue
		}
		switch c {
		case '"':
			inString = !inString
		case '\\':
			if inString {
				i++ // the escaped byte is copied with the run
			}
		case '<', '>', '&':
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			start = i + 1
		case 0xE2:
			if i+2 < len(src) && src[i+1] == 0x80 && src[i+2]&^1 == 0xA8 {
				dst = append(dst, src[start:i]...)
				dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[src[i+2]&0xF])
				i += 2
				start = i + 1
			}
		default: // whitespace, dropped outside strings
			if !inString {
				dst = append(dst, src[start:i]...)
				start = i + 1
			}
		}
	}
	return append(dst, src[start:]...)
}

// compactPlain marks the bytes AppendCompactJSON copies without looking
// at their context.
var compactPlain = func() (t [256]bool) {
	for c := range t {
		t[c] = true
	}
	for _, c := range []byte{'"', '\\', '<', '>', '&', 0xE2, ' ', '\t', '\n', '\r'} {
		t[c] = false
	}
	return
}()

// canonState holds the reusable map-key scratch of one encode.
type canonState struct {
	keys []string
}

var canonPool = sync.Pool{New: func() any { return new(canonState) }}

// MarshalCanonical returns the compact canonical JSON encoding of d,
// byte-identical to json.Marshal(d).
func MarshalCanonical(d *Device) ([]byte, error) {
	return AppendDeviceJSON(nil, d)
}

// AppendDeviceJSON appends the compact canonical JSON encoding of d to
// dst — byte-identical to json.Marshal(d), with no reflection.
func AppendDeviceJSON(dst []byte, d *Device) ([]byte, error) {
	st := canonPool.Get().(*canonState)
	dst, err := st.appendDevice(dst, d)
	canonPool.Put(st)
	return dst, err
}

func (st *canonState) appendDevice(dst []byte, d *Device) ([]byte, error) {
	var err error
	dst = append(dst, `{"name":`...)
	dst = AppendJSONString(dst, d.Name)
	dst = append(dst, `,"layers":[`...)
	for i := range d.Layers {
		if i > 0 {
			dst = append(dst, ',')
		}
		l := &d.Layers[i]
		dst = append(dst, `{"id":`...)
		dst = AppendJSONString(dst, l.ID)
		dst = append(dst, `,"name":`...)
		dst = AppendJSONString(dst, l.Name)
		dst = append(dst, `,"type":`...)
		dst = AppendJSONString(dst, string(l.Type))
		dst = append(dst, '}')
	}
	dst = append(dst, `],"components":[`...)
	for i := range d.Components {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = st.appendComponent(dst, &d.Components[i]); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `],"connections":[`...)
	for i := range d.Connections {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendConnection(dst, &d.Connections[i])
	}
	dst = append(dst, ']')
	if len(d.Features) > 0 {
		dst = append(dst, `,"features":[`...)
		for i := range d.Features {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendFeature(dst, &d.Features[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if len(d.Params) > 0 {
		dst = append(dst, `,"params":`...)
		if dst, err = st.appendParams(dst, d.Params); err != nil {
			return dst, err
		}
	}
	if len(d.ValveMap) > 0 {
		dst = append(dst, `,"valveMap":`...)
		dst = st.appendStringMap(dst, d.ValveMap)
	}
	if len(d.ValveTypes) > 0 {
		dst = append(dst, `,"valveTypeMap":{`...)
		st.keys = st.keys[:0]
		for k := range d.ValveTypes {
			st.keys = append(st.keys, k)
		}
		sort.Strings(st.keys)
		for i, k := range st.keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSONString(dst, k)
			dst = append(dst, ':')
			dst = AppendJSONString(dst, string(d.ValveTypes[k]))
		}
		dst = append(dst, '}')
	}
	version := VersionV1
	if d.UsesV12() {
		version = VersionV12
	}
	dst = append(dst, `,"version":`...)
	dst = AppendJSONString(dst, version)
	return append(dst, '}'), nil
}

func (st *canonState) appendComponent(dst []byte, c *Component) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = AppendJSONString(dst, c.ID)
	dst = append(dst, `,"name":`...)
	dst = AppendJSONString(dst, c.Name)
	dst = append(dst, `,"entity":`...)
	dst = AppendJSONString(dst, c.Entity)
	dst = append(dst, `,"layers":`...)
	if c.Layers == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i, l := range c.Layers {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSONString(dst, l)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"x-span":`...)
	dst = strconv.AppendInt(dst, c.XSpan, 10)
	dst = append(dst, `,"y-span":`...)
	dst = strconv.AppendInt(dst, c.YSpan, 10)
	dst = append(dst, `,"ports":`...)
	if c.Ports == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i := range c.Ports {
			if i > 0 {
				dst = append(dst, ',')
			}
			p := &c.Ports[i]
			dst = append(dst, `{"label":`...)
			dst = AppendJSONString(dst, p.Label)
			dst = append(dst, `,"layer":`...)
			dst = AppendJSONString(dst, p.Layer)
			dst = append(dst, `,"x":`...)
			dst = strconv.AppendInt(dst, p.X, 10)
			dst = append(dst, `,"y":`...)
			dst = strconv.AppendInt(dst, p.Y, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(c.Params) > 0 {
		dst = append(dst, `,"params":`...)
		var err error
		if dst, err = st.appendParams(dst, c.Params); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

func appendTarget(dst []byte, t *Target) []byte {
	dst = append(dst, `{"component":`...)
	dst = AppendJSONString(dst, t.Component)
	if t.Port != "" {
		dst = append(dst, `,"port":`...)
		dst = AppendJSONString(dst, t.Port)
	}
	return append(dst, '}')
}

func appendXY(dst []byte, x, y int64) []byte {
	dst = append(dst, `{"x":`...)
	dst = strconv.AppendInt(dst, x, 10)
	dst = append(dst, `,"y":`...)
	dst = strconv.AppendInt(dst, y, 10)
	return append(dst, '}')
}

func appendConnection(dst []byte, c *Connection) []byte {
	dst = append(dst, `{"id":`...)
	dst = AppendJSONString(dst, c.ID)
	dst = append(dst, `,"name":`...)
	dst = AppendJSONString(dst, c.Name)
	dst = append(dst, `,"layer":`...)
	dst = AppendJSONString(dst, c.Layer)
	dst = append(dst, `,"source":`...)
	dst = appendTarget(dst, &c.Source)
	dst = append(dst, `,"sinks":`...)
	if c.Sinks == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i := range c.Sinks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendTarget(dst, &c.Sinks[i])
		}
		dst = append(dst, ']')
	}
	if len(c.Paths) > 0 {
		dst = append(dst, `,"paths":[`...)
		for i := range c.Paths {
			if i > 0 {
				dst = append(dst, ',')
			}
			p := &c.Paths[i]
			dst = append(dst, `{"source":`...)
			dst = appendXY(dst, p.Source.X, p.Source.Y)
			dst = append(dst, `,"sink":`...)
			dst = appendXY(dst, p.Sink.X, p.Sink.Y)
			if len(p.Waypoints) > 0 {
				dst = append(dst, `,"wayPoints":[`...)
				for j, wp := range p.Waypoints {
					if j > 0 {
						dst = append(dst, ',')
					}
					dst = append(dst, '[')
					dst = strconv.AppendInt(dst, wp.X, 10)
					dst = append(dst, ',')
					dst = strconv.AppendInt(dst, wp.Y, 10)
					dst = append(dst, ']')
				}
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendFeature(dst []byte, f *Feature) ([]byte, error) {
	dst = append(dst, `{"name":`...)
	dst = AppendJSONString(dst, f.Name)
	dst = append(dst, `,"id":`...)
	dst = AppendJSONString(dst, f.ID)
	dst = append(dst, `,"layer":`...)
	dst = AppendJSONString(dst, f.Layer)
	switch f.Kind {
	case FeatureComponent:
		dst = append(dst, `,"location":`...)
		dst = appendXY(dst, f.Location.X, f.Location.Y)
		dst = append(dst, `,"x-span":`...)
		dst = strconv.AppendInt(dst, f.XSpan, 10)
		dst = append(dst, `,"y-span":`...)
		dst = strconv.AppendInt(dst, f.YSpan, 10)
	case FeatureChannel:
		if f.Connection != "" {
			dst = append(dst, `,"connection":`...)
			dst = AppendJSONString(dst, f.Connection)
		}
		dst = append(dst, `,"width":`...)
		dst = strconv.AppendInt(dst, f.Width, 10)
		dst = append(dst, `,"source":`...)
		dst = appendXY(dst, f.Source.X, f.Source.Y)
		dst = append(dst, `,"sink":`...)
		dst = appendXY(dst, f.Sink.X, f.Sink.Y)
		dst = append(dst, `,"type":"channel"`...)
	default:
		return dst, fmt.Errorf("core: cannot marshal feature %q: unknown kind %d", f.ID, int(f.Kind))
	}
	dst = append(dst, `,"depth":`...)
	dst = strconv.AppendInt(dst, f.Depth, 10)
	return append(dst, '}'), nil
}

func (st *canonState) appendParams(dst []byte, p Params) ([]byte, error) {
	st.keys = st.keys[:0]
	for k := range p {
		st.keys = append(st.keys, k)
	}
	sort.Strings(st.keys)
	dst = append(dst, '{')
	var err error
	for i, k := range st.keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, k)
		dst = append(dst, ':')
		if dst, err = AppendJSONFloat(dst, p[k]); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

func (st *canonState) appendStringMap(dst []byte, m map[string]string) []byte {
	st.keys = st.keys[:0]
	for k := range m {
		st.keys = append(st.keys, k)
	}
	sort.Strings(st.keys)
	dst = append(dst, '{')
	for i, k := range st.keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, k)
		dst = append(dst, ':')
		dst = AppendJSONString(dst, m[k])
	}
	return append(dst, '}')
}
