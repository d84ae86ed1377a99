package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Encode writes the device to w as indented ParchMint JSON: the canonical
// compact encoding (AppendDeviceJSON) indented by two spaces, plus a
// trailing newline.
func Encode(w io.Writer, d *Device) error {
	data, err := Marshal(d)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("core: encoding device %q: %w", d.Name, err)
	}
	return nil
}

// Marshal returns the device as indented ParchMint JSON bytes, the same
// bytes Encode writes.
func Marshal(d *Device) ([]byte, error) {
	compact, err := AppendDeviceJSON(nil, d)
	if err != nil {
		return nil, fmt.Errorf("core: encoding device %q: %w", d.Name, err)
	}
	var buf bytes.Buffer
	buf.Grow(2 * len(compact))
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		return nil, fmt.Errorf("core: encoding device %q: %w", d.Name, err)
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// Decode reads one ParchMint JSON device from r. Syntax failures come
// back as *ParseError (matching ErrParse), so callers can classify them
// without string inspection.
func Decode(r io.Reader) (*Device, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, &ParseError{Format: "json", Err: err}
	}
	return Unmarshal(data)
}

// Unmarshal parses ParchMint JSON bytes into a device with the
// hand-rolled parser in canondec.go.
func Unmarshal(data []byte) (*Device, error) {
	d, err := unmarshalDevice(data)
	if err != nil {
		return nil, &ParseError{Format: "json", Err: err}
	}
	return d, nil
}
