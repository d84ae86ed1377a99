// Package cli holds the device-loading layer shared by the command-line
// tools and the benchmark service: a Source abstraction that separates
// format classification from I/O, a context-aware io.Reader-based loader
// that reports conversion notes as values, and the small output helpers
// the commands share.
package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mint"
	"repro/internal/obs"
)

// Format classifies a device input's encoding.
type Format string

// The input formats the loader understands.
const (
	// FormatAuto sniffs the format from the source name (see SniffFormat).
	FormatAuto Format = ""
	// FormatJSON is ParchMint JSON.
	FormatJSON Format = "json"
	// FormatMINT is MINT hardware-description text.
	FormatMINT Format = "mint"
	// FormatBench names a built-in suite benchmark; no reader is consumed.
	FormatBench Format = "bench"
)

// SniffFormat classifies a source name without touching I/O: "bench:"
// prefixes select the suite, ".mint"/".uf" suffixes select MINT text, and
// everything else (including "-" for stdin) is ParchMint JSON.
func SniffFormat(name string) Format {
	switch {
	case strings.HasPrefix(name, "bench:"):
		return FormatBench
	case strings.HasSuffix(name, ".mint"), strings.HasSuffix(name, ".uf"):
		return FormatMINT
	default:
		return FormatJSON
	}
}

// Source describes one device input: a name (for errors and notes), an
// explicit format hint, and the reader carrying the bytes. Benchmark
// sources carry no reader — the name selects the generator.
type Source struct {
	// Name labels the input: a path, "stdin", a request tag, or (for
	// FormatBench) the benchmark name, with or without the "bench:" prefix.
	Name string
	// Format is the explicit encoding; FormatAuto sniffs from Name.
	Format Format
	// Reader supplies the input text for FormatJSON and FormatMINT.
	Reader io.Reader
}

// Result is a loaded device plus everything the loader used to say on
// stderr: the format actually decoded and any MINT conversion fidelity
// notes, returned as values so servers and tests can route them.
type Result struct {
	Device *core.Device
	Format Format
	// Notes lists MINT→ParchMint conversion fidelity notes (constructs
	// outside the common subset); empty for JSON and benchmark sources.
	Notes []string
}

// PrintNotes writes each note as a "note: ..." line, the rendering the
// CLIs historically produced on stderr.
func (r *Result) PrintNotes(w io.Writer) {
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// Load decodes one device from an explicit source. It is the single entry
// point the server, the CLIs, and tests share: I/O comes only from
// src.Reader (or the benchmark generators), syntax failures surface as
// *core.ParseError, unknown benchmarks match bench.ErrNotFound, and the
// context is honored before each decode phase.
func Load(ctx context.Context, src Source) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	format := src.Format
	if format == FormatAuto {
		format = SniffFormat(src.Name)
	}
	switch format {
	case FormatBench:
		name := strings.TrimPrefix(src.Name, "bench:")
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		_, sp := obs.Start(ctx, "bench.build")
		sp.SetAttr("bench", name)
		d := b.Build()
		sp.End()
		return &Result{Device: d, Format: FormatBench}, nil
	case FormatJSON:
		_, sp := obs.Start(ctx, "parse.json")
		sp.SetAttr("source", src.Name)
		d, err := core.Decode(src.Reader)
		sp.End()
		if err != nil {
			return nil, named(err, src.Name)
		}
		return &Result{Device: d, Format: FormatJSON}, nil
	case FormatMINT:
		data, err := io.ReadAll(src.Reader)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		_, sp := obs.Start(ctx, "parse.mint")
		sp.SetAttr("source", src.Name)
		f, err := mint.Parse(string(data))
		sp.End()
		if err != nil {
			return nil, &core.ParseError{Format: "mint", Source: src.Name, Err: err}
		}
		_, sc := obs.Start(ctx, "convert.mint")
		d, fid, err := mint.ToDevice(f)
		sc.End()
		if err != nil {
			return nil, &core.ParseError{Format: "mint", Source: src.Name, Err: err}
		}
		return &Result{Device: d, Format: FormatMINT, Notes: fid.Notes}, nil
	default:
		return nil, fmt.Errorf("cli: unknown format %q", format)
	}
}

// named stamps the source name onto a parse error that lacks one.
func named(err error, name string) error {
	if pe, ok := err.(*core.ParseError); ok && pe.Source == "" {
		pe.Source = name
	}
	return err
}

// LoadArg loads a device from a command-line argument:
//
//   - "bench:<name>" builds the named suite benchmark;
//   - "-" reads ParchMint JSON from stdin;
//   - a path ending in .mint or .uf parses MINT text;
//   - any other path parses ParchMint JSON.
func LoadArg(ctx context.Context, arg string) (*Result, error) {
	format := SniffFormat(arg)
	if format == FormatBench {
		return Load(ctx, Source{Name: arg, Format: FormatBench})
	}
	if arg == "-" {
		return Load(ctx, Source{Name: "stdin", Format: FormatJSON, Reader: os.Stdin})
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(ctx, Source{Name: arg, Format: format, Reader: f})
}

// WriteOutput writes data to the path, or to stdout when path is "" or "-".
func WriteOutput(path string, data []byte) error {
	if path == "" || path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Fatalf prints an error to stderr and exits 1.
func Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// ReadAll reads a whole source ("-" for stdin, else a file path).
func ReadAll(src string) ([]byte, error) {
	if src == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(src)
}
