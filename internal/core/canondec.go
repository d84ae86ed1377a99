package core

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/geom"
)

// Allocation-lean JSON parser: a hand-rolled tokenizer plus a device
// decoder that together replace the encoding/json reflection path on the
// serving tier. The contract is accept/reject and value parity with the
// json.Decoder path this package used before (decodeStd, in the package's
// test files, keeps that path as the differential-test reference): the
// same bodies parse, the same bodies fail, and accepted bodies produce
// devices whose canonical encoding is byte-identical. That includes the
// obscure corners — case-folded field names (unicode.SimpleFold classes,
// so U+212A KELVIN matches "k"), duplicate keys merging into slices and
// maps the way reflect-driven decoding does, null semantics per target
// kind, surrogate pair repair, and the 10000-level nesting limit.
//
// Strings are interned per parser (parsers are pooled), so the component
// and connection IDs that repeat across a device — and across requests —
// collapse to shared allocations.

const (
	// maxParseDepth matches encoding/json's scanner nesting limit.
	maxParseDepth = 10000
	// maxInternLen bounds the strings worth interning; longer ones are
	// unlikely to repeat.
	maxInternLen = 64
	// maxInternBytes bounds one pooled parser's retained intern table so
	// adversarial ID churn cannot grow it without bound.
	maxInternBytes = 1 << 16
)

// Parser is a pooled, allocation-lean JSON tokenizer. Byte slices
// returned by NextKey are valid only until the next Parser call.
type Parser struct {
	data  []byte
	pos   int
	depth int
	// loose records, since the last RawValueCompact or ReadStringRaw
	// cleared it, that the scanned bytes are not already in the form the
	// canonical encoders write: whitespace between tokens, a raw <, > or
	// &, or a raw U+2028/U+2029 (what AppendCompactJSON rewrites), and,
	// while decoding a string, invalid UTF-8 or an escape AppendJSONString
	// would not write (such as \/ or \u0041).
	loose   bool
	scratch []byte
	stack   []byte // SkipValue's open containers

	intern      map[string]string
	internBytes int
}

var parserPool = sync.Pool{New: func() any { return new(Parser) }}

// NewParser returns a pooled parser positioned at the start of data.
func NewParser(data []byte) *Parser {
	p := parserPool.Get().(*Parser)
	p.data, p.pos, p.depth = data, 0, 0
	if p.internBytes > maxInternBytes {
		p.intern, p.internBytes = nil, 0
	}
	return p
}

// Release returns the parser to the pool. The intern table survives so
// repeated request vocabulary stays shared.
func (p *Parser) Release() {
	p.data = nil
	parserPool.Put(p)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (p *Parser) skipSpace() {
	if p.pos < len(p.data) && p.data[p.pos] <= ' ' {
		p.pos = p.skipSpaceAt(p.pos)
	}
}

// Byte classes of the string scanners. strPlain marks bytes that a
// string literal holds verbatim and that both canonical encoders copy
// unchanged: printable ASCII other than '"', '\\', '<', '>' and '&'.
// rawPlain marks what skipStringAt passes over without a second look: those
// bytes plus every byte of a multi-byte sequence except 0xE2, the lead
// byte of U+2028/U+2029.
var strPlain, rawPlain = func() (sp, rp [256]bool) {
	for c := 0x20; c < 256; c++ {
		switch c {
		case '"', '\\', '<', '>', '&':
			continue
		}
		sp[c] = c < utf8.RuneSelf
		rp[c] = c != 0xE2
	}
	return
}()

// AtEOF reports whether only whitespace remains.
func (p *Parser) AtEOF() bool {
	p.skipSpace()
	return p.pos >= len(p.data)
}

func (p *Parser) syntaxErr() error {
	if p.pos >= len(p.data) {
		return fmt.Errorf("core: unexpected end of JSON input at offset %d", p.pos)
	}
	return fmt.Errorf("core: invalid character %q at offset %d", p.data[p.pos], p.pos)
}

func (p *Parser) peek() (byte, error) {
	p.skipSpace()
	if p.pos >= len(p.data) {
		return 0, p.syntaxErr()
	}
	return p.data[p.pos], nil
}

func (p *Parser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.data) || p.data[p.pos] != c {
		return p.syntaxErr()
	}
	p.pos++
	return nil
}

func (p *Parser) push() error {
	p.depth++
	if p.depth > maxParseDepth {
		return fmt.Errorf("core: exceeded max depth of %d", maxParseDepth)
	}
	return nil
}

// TryNull consumes a leading null literal, reporting whether it did.
func (p *Parser) TryNull() bool {
	p.skipSpace()
	if p.pos+4 <= len(p.data) && p.data[p.pos] == 'n' &&
		p.data[p.pos+1] == 'u' && p.data[p.pos+2] == 'l' && p.data[p.pos+3] == 'l' {
		p.pos += 4
		return true
	}
	return false
}

// BeginObject consumes '{'.
func (p *Parser) BeginObject() error {
	if err := p.expect('{'); err != nil {
		return err
	}
	return p.push()
}

// NextKey advances to the next object member: nil/false after consuming
// the closing '}', otherwise the unescaped key (valid until the next
// Parser call) with its ':' consumed. *first must start true.
func (p *Parser) NextKey(first *bool) ([]byte, bool, error) {
	c, err := p.peek()
	if err != nil {
		return nil, false, err
	}
	if c == '}' {
		p.pos++
		p.depth--
		return nil, false, nil
	}
	if !*first {
		if c != ',' {
			return nil, false, p.syntaxErr()
		}
		p.pos++
	}
	*first = false
	key, err := p.readStringBytes()
	if err != nil {
		return nil, false, err
	}
	if err := p.expect(':'); err != nil {
		return nil, false, err
	}
	return key, true, nil
}

// BeginArray consumes '['.
func (p *Parser) BeginArray() error {
	if err := p.expect('['); err != nil {
		return err
	}
	return p.push()
}

// ArrayNext reports whether another element follows, consuming the
// separating ',' or the closing ']'. *first must start true.
func (p *Parser) ArrayNext(first *bool) (bool, error) {
	c, err := p.peek()
	if err != nil {
		return false, err
	}
	if c == ']' {
		p.pos++
		p.depth--
		return false, nil
	}
	if !*first {
		if c != ',' {
			return false, p.syntaxErr()
		}
		p.pos++
	}
	*first = false
	return true, nil
}

// readStringBytes parses a string literal and returns its unescaped
// bytes — a direct slice of the input when no transformation is needed,
// the parser's scratch buffer otherwise.
func (p *Parser) readStringBytes() ([]byte, error) {
	if err := p.expect('"'); err != nil {
		return nil, err
	}
	data, pos := p.data, p.pos
	for pos < len(data) && strPlain[data[pos]] {
		pos++
	}
	if pos < len(data) && data[pos] == '"' {
		b := data[p.pos:pos]
		p.pos = pos + 1
		return b, nil
	}
	start := p.pos
	p.pos = pos
	return p.readStringSlow(start)
}

// readStringSlow finishes a literal whose plain prefix data[start:p.pos]
// the fast loop already scanned. Runs of bytes that decode to themselves
// are copied with one append each; escapes, invalid UTF-8 and the bytes
// the canonical string encoder rewrites are handled one at a time, and
// any of them that AppendJSONString would not write back identically
// sets p.loose.
func (p *Parser) readStringSlow(start int) ([]byte, error) {
	data, pos := p.data, p.pos
	s := append(p.scratch[:0], data[start:pos]...)
	for pos < len(data) {
		run := pos
		for pos < len(data) {
			if c := data[pos]; strPlain[c] {
				pos++
				continue
			} else if c < utf8.RuneSelf {
				break
			}
			r, size := utf8.DecodeRune(data[pos:])
			if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
				break
			}
			pos += size
		}
		s = append(s, data[run:pos]...)
		if pos >= len(data) {
			break
		}
		switch c := data[pos]; {
		case c == '"':
			p.pos = pos + 1
			p.scratch = s
			return s, nil
		case c == '\\':
			pos++
			if pos >= len(data) {
				p.pos = pos
				return nil, p.syntaxErr()
			}
			e := data[pos]
			pos++
			switch e {
			case '"', '\\':
				s = append(s, e)
			case '/':
				p.loose = true
				s = append(s, e)
			case 'b':
				s = append(s, '\b')
			case 'f':
				s = append(s, '\f')
			case 'n':
				s = append(s, '\n')
			case 'r':
				s = append(s, '\r')
			case 't':
				s = append(s, '\t')
			case 'u':
				r, ok := hex4(data[pos:])
				if !ok {
					p.pos = pos
					return nil, p.syntaxErr()
				}
				if !canonicalEscape(r, data[pos:pos+4]) {
					p.loose = true
				}
				pos += 4
				if utf16.IsSurrogate(r) {
					// A valid high+low pair combines; anything else
					// becomes U+FFFD with the following escape (if any)
					// reprocessed on its own — encoding/json's repair.
					r2 := rune(-1)
					if pos+6 <= len(data) && data[pos] == '\\' && data[pos+1] == 'u' {
						if v, ok := hex4(data[pos+2:]); ok {
							r2 = v
						}
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						pos += 6
						s = utf8.AppendRune(s, dec)
					} else {
						s = append(s, '\xef', '\xbf', '\xbd')
					}
					continue
				}
				s = utf8.AppendRune(s, r)
			default:
				p.pos = pos - 2
				return nil, p.syntaxErr()
			}
		case c < 0x20:
			p.pos = pos
			return nil, p.syntaxErr()
		case c < utf8.RuneSelf: // '<', '>' or '&'
			p.loose = true
			s = append(s, c)
			pos++
		default:
			p.loose = true
			if r, size := utf8.DecodeRune(data[pos:]); size > 1 {
				// U+2028 or U+2029, which AppendJSONString escapes.
				s = utf8.AppendRune(s, r)
				pos += size
			} else {
				s = append(s, '\xef', '\xbf', '\xbd')
				pos++
			}
		}
	}
	p.pos = pos
	p.scratch = s
	return nil, p.syntaxErr()
}

// canonicalEscape reports whether the four hex digits of a \u escape are
// exactly how AppendJSONString writes r: lower-case hex, and only for the
// runes it escapes that way (controls without a short escape, <, >, &,
// U+2028 and U+2029).
func canonicalEscape(r rune, hex []byte) bool {
	switch r {
	case '\b', '\f', '\n', '\r', '\t':
		return false
	case '<', '>', '&', '\u2028', '\u2029':
	default:
		if r >= 0x20 {
			return false
		}
	}
	return hex[0] == hexDigits[r>>12] && hex[1] == hexDigits[r>>8&0xF] &&
		hex[2] == hexDigits[r>>4&0xF] && hex[3] == hexDigits[r&0xF]
}

func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return -1, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1, false
		}
		r = r*16 + rune(c)
	}
	return r, true
}

// internBytesToString returns b as a string, sharing storage with prior
// occurrences via the parser's intern table.
func (p *Parser) internBytesToString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) <= maxInternLen {
		if s, ok := p.intern[string(b)]; ok {
			return s
		}
	}
	s := string(b)
	if len(b) <= maxInternLen && p.internBytes+len(s) <= maxInternBytes {
		if p.intern == nil {
			p.intern = make(map[string]string, 64)
		}
		p.intern[s] = s
		p.internBytes += len(s)
	}
	return s
}

// ReadString parses a string literal into an interned string.
func (p *Parser) ReadString() (string, error) {
	b, err := p.readStringBytes()
	if err != nil {
		return "", err
	}
	return p.internBytesToString(b), nil
}

// ReadStringRaw is ReadString that also returns the literal's raw bytes,
// quotes included, and reports whether they are exactly what
// AppendJSONString writes for the decoded string, so a caller
// re-encoding it may copy raw instead.
func (p *Parser) ReadStringRaw() (s string, raw []byte, canonical bool, err error) {
	p.skipSpace()
	start := p.pos
	p.loose = false
	b, err := p.readStringBytes()
	if err != nil {
		return "", nil, false, err
	}
	return p.internBytesToString(b), p.data[start:p.pos], !p.loose, nil
}

// scanNumber consumes one number literal and returns its bytes.
func (p *Parser) scanNumber() ([]byte, error) {
	p.skipSpace()
	start := p.pos
	if p.pos < len(p.data) && p.data[p.pos] == '-' {
		p.pos++
	}
	switch {
	case p.pos < len(p.data) && p.data[p.pos] == '0':
		p.pos++
	case p.pos < len(p.data) && '1' <= p.data[p.pos] && p.data[p.pos] <= '9':
		p.pos++
		for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
			p.pos++
		}
	default:
		return nil, p.syntaxErr()
	}
	if p.pos < len(p.data) && p.data[p.pos] == '.' {
		p.pos++
		if p.pos >= len(p.data) || p.data[p.pos] < '0' || p.data[p.pos] > '9' {
			return nil, p.syntaxErr()
		}
		for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
			p.pos++
		}
	}
	if p.pos < len(p.data) && (p.data[p.pos] == 'e' || p.data[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.data) && (p.data[p.pos] == '+' || p.data[p.pos] == '-') {
			p.pos++
		}
		if p.pos >= len(p.data) || p.data[p.pos] < '0' || p.data[p.pos] > '9' {
			return nil, p.syntaxErr()
		}
		for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
			p.pos++
		}
	}
	return p.data[start:p.pos], nil
}

// ReadInt64 parses a number into int64 with strconv.ParseInt's domain:
// fractions, exponents, and out-of-range values are errors, exactly as
// encoding/json treats integer targets.
func (p *Parser) ReadInt64() (int64, error) {
	lit, err := p.scanNumber()
	if err != nil {
		return 0, err
	}
	i, neg := 0, false
	if lit[0] == '-' {
		neg, i = true, 1
	}
	var n uint64
	for ; i < len(lit); i++ {
		c := lit[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("core: cannot unmarshal number %s into integer", lit)
		}
		if n > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, fmt.Errorf("core: number %s overflows int64", lit)
		}
		n = n*10 + uint64(c-'0')
	}
	if neg {
		if n > 1<<63 {
			return 0, fmt.Errorf("core: number %s overflows int64", lit)
		}
		return -int64(n), nil
	}
	if n > math.MaxInt64 {
		return 0, fmt.Errorf("core: number %s overflows int64", lit)
	}
	return int64(n), nil
}

// ReadUint64 parses a number into uint64 with strconv.ParseUint's domain.
func (p *Parser) ReadUint64() (uint64, error) {
	lit, err := p.scanNumber()
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, c := range lit {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("core: cannot unmarshal number %s into unsigned integer", lit)
		}
		if n > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, fmt.Errorf("core: number %s overflows uint64", lit)
		}
		n = n*10 + uint64(c-'0')
	}
	return n, nil
}

// ReadFloat64 parses a number into float64; range errors reject, as in
// encoding/json.
func (p *Parser) ReadFloat64() (float64, error) {
	lit, err := p.scanNumber()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("core: cannot unmarshal number %s into float64: %w", lit, err)
	}
	return f, nil
}

// ReadBool parses a true/false literal.
func (p *Parser) ReadBool() (bool, error) {
	c, err := p.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case 't':
		return true, p.literal("true")
	case 'f':
		return false, p.literal("false")
	}
	return false, p.syntaxErr()
}

func (p *Parser) literal(s string) error {
	if p.pos+len(s) > len(p.data) || string(p.data[p.pos:p.pos+len(s)]) != s {
		return p.syntaxErr()
	}
	p.pos += len(s)
	return nil
}

// RawValue consumes one value and returns its raw bytes, interior
// formatting preserved — the json.RawMessage capture rule.
func (p *Parser) RawValue() ([]byte, error) {
	raw, _, err := p.RawValueCompact()
	return raw, err
}

// RawValueCompact is RawValue that also reports whether the raw bytes
// are already what AppendCompactJSON produces from them: no whitespace
// between tokens, no raw <, > or &, no raw U+2028/U+2029.
func (p *Parser) RawValueCompact() (raw []byte, compact bool, err error) {
	p.skipSpace()
	start := p.pos
	p.loose = false
	if err := p.SkipValue(); err != nil {
		return nil, false, err
	}
	return p.data[start:p.pos], !p.loose, nil
}

// SkipValue consumes one value, validating syntax only. It is one loop
// over register-local data and pos, with the open containers on a byte
// stack ('{' or '['), rather than a recursive descent through the
// Parser's token methods: the device body of an inline request is
// skipped this way on every request, hit or miss.
func (p *Parser) SkipValue() error {
	data, pos, depth := p.data, p.pos, p.depth
	stack := p.stack[:0]
	defer func() { p.stack = stack }()
	fail := func(at int) error {
		p.pos = at
		return p.syntaxErr()
	}
	for {
		// A value starts at pos, after optional whitespace.
		if pos < len(data) && data[pos] <= ' ' {
			pos = p.skipSpaceAt(pos)
		}
		if pos >= len(data) {
			return fail(pos)
		}
		switch c := data[pos]; c {
		case '{', '[':
			if depth++; depth > maxParseDepth {
				return fmt.Errorf("core: exceeded max depth of %d", maxParseDepth)
			}
			pos++
			if pos < len(data) && data[pos] <= ' ' {
				pos = p.skipSpaceAt(pos)
			}
			if pos < len(data) && data[pos] == c+2 { // '}' or ']'
				pos++
				depth--
				break
			}
			stack = append(stack, c)
			if c == '{' {
				var err error
				if pos, err = p.skipMemberKey(pos); err != nil {
					return err
				}
			}
			continue
		case '"':
			var err error
			if pos, err = p.skipStringAt(pos + 1); err != nil {
				return err
			}
		case 't', 'f', 'n':
			lit := "null"
			if c == 't' {
				lit = "true"
			} else if c == 'f' {
				lit = "false"
			}
			if len(data)-pos < len(lit) || string(data[pos:pos+len(lit)]) != lit {
				return fail(pos)
			}
			pos += len(lit)
		default:
			p.pos = pos
			if _, err := p.scanNumber(); err != nil {
				return err
			}
			pos = p.pos
		}
		// A value ended at pos: close containers until one continues.
		for {
			if len(stack) == 0 {
				p.pos, p.depth = pos, depth
				return nil
			}
			if pos < len(data) && data[pos] <= ' ' {
				pos = p.skipSpaceAt(pos)
			}
			if pos >= len(data) {
				return fail(pos)
			}
			open := stack[len(stack)-1]
			if c := data[pos]; c == open+2 {
				pos++
				depth--
				stack = stack[:len(stack)-1]
				continue
			} else if c != ',' {
				return fail(pos)
			}
			pos++
			if open == '{' {
				var err error
				if pos, err = p.skipMemberKey(pos); err != nil {
					return err
				}
			}
			break
		}
	}
}

// skipSpaceAt returns the position after the whitespace at pos, setting
// p.loose if there was any.
func (p *Parser) skipSpaceAt(pos int) int {
	start := pos
	for pos < len(p.data) && isSpace(p.data[pos]) {
		pos++
	}
	if pos > start {
		p.loose = true
	}
	return pos
}

// skipMemberKey consumes an object member's key string and its ':'
// (each after optional whitespace), returning the position after ':'.
func (p *Parser) skipMemberKey(pos int) (int, error) {
	data := p.data
	if pos < len(data) && data[pos] <= ' ' {
		pos = p.skipSpaceAt(pos)
	}
	if pos >= len(data) || data[pos] != '"' {
		p.pos = pos
		return 0, p.syntaxErr()
	}
	pos, err := p.skipStringAt(pos + 1)
	if err != nil {
		return 0, err
	}
	if pos < len(data) && data[pos] <= ' ' {
		pos = p.skipSpaceAt(pos)
	}
	if pos >= len(data) || data[pos] != ':' {
		p.pos = pos
		return 0, p.syntaxErr()
	}
	return pos + 1, nil
}

// skipStringAt validates the rest of a string literal whose opening quote
// precedes pos, without unescaping it, and returns the position after its
// closing quote. A byte AppendCompactJSON would rewrite sets p.loose.
func (p *Parser) skipStringAt(pos int) (int, error) {
	data := p.data
	for pos < len(data) {
		c := data[pos]
		if rawPlain[c] {
			pos++
			continue
		}
		switch {
		case c == '"':
			return pos + 1, nil
		case c == '\\':
			pos++
			if pos >= len(data) {
				break
			}
			switch data[pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				pos++
			case 'u':
				pos++
				if _, ok := hex4(data[pos:]); !ok {
					p.pos = pos
					return 0, p.syntaxErr()
				}
				pos += 4
			default:
				p.pos = pos
				return 0, p.syntaxErr()
			}
		case c < 0x20:
			p.pos = pos
			return 0, p.syntaxErr()
		case c == 0xE2:
			if pos+2 < len(data) && data[pos+1] == 0x80 && data[pos+2]&^1 == 0xA8 {
				p.loose = true
			}
			pos++
		default: // '<', '>' or '&'
			p.loose = true
			pos++
		}
	}
	p.pos = len(data)
	return 0, p.syntaxErr()
}

// FoldEq reports whether key case-folds to upper, an ASCII-uppercase
// field name — the equivalence encoding/json's field matching uses
// (ASCII case plus unicode.SimpleFold classes).
func FoldEq(key []byte, upper string) bool {
	j := 0
	for i := 0; i < len(key); {
		if j >= len(upper) {
			return false
		}
		c := key[i]
		if c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != upper[j] {
				return false
			}
			i++
			j++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		i += n
		r = foldRune(r)
		if r >= utf8.RuneSelf || byte(r) != upper[j] {
			return false
		}
		j++
	}
	return j == len(upper)
}

// foldRune returns the smallest rune in r's SimpleFold class.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// ---- Device decoding ----

// unmarshalDevice is the fast path behind Unmarshal/Decode.
func unmarshalDevice(data []byte) (*Device, error) {
	p := NewParser(data)
	defer p.Release()
	d := &Device{}
	if p.AtEOF() {
		return nil, io.EOF
	}
	if p.TryNull() {
		// json.Decoder reads exactly one value and defers any
		// "after top-level value" complaint to the next Decode call,
		// so trailing bytes after a top-level null are not an error.
		return d, nil
	}
	if err := p.parseDeviceObject(d); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseDeviceObject(d *Device) error {
	if err := p.BeginObject(); err != nil {
		return err
	}
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		switch {
		case FoldEq(key, "NAME"):
			err = p.stringField(&d.Name)
		case FoldEq(key, "LAYERS"):
			err = parseSliceMerge(p, &d.Layers, (*Parser).parseLayer)
		case FoldEq(key, "COMPONENTS"):
			err = parseSliceMerge(p, &d.Components, (*Parser).parseComponent)
		case FoldEq(key, "CONNECTIONS"):
			err = parseSliceMerge(p, &d.Connections, (*Parser).parseConnection)
		case FoldEq(key, "FEATURES"):
			err = parseSliceMerge(p, &d.Features, (*Parser).parseFeatureElem)
		case FoldEq(key, "PARAMS"):
			err = p.parseParams(&d.Params)
		case FoldEq(key, "VALVEMAP"):
			err = p.parseStringMap(&d.ValveMap)
		case FoldEq(key, "VALVETYPEMAP"):
			err = p.parseValveTypes(&d.ValveTypes)
		case FoldEq(key, "VERSION"):
			var sink string
			err = p.stringField(&sink)
		default:
			err = p.SkipValue()
		}
		if err != nil {
			return err
		}
	}
}

// stringField decodes a string value; null leaves the target unchanged.
func (p *Parser) stringField(dst *string) error {
	if p.TryNull() {
		return nil
	}
	s, err := p.ReadString()
	if err != nil {
		return err
	}
	*dst = s
	return nil
}

// int64Field decodes an integer value; null leaves the target unchanged.
func (p *Parser) int64Field(dst *int64) error {
	if p.TryNull() {
		return nil
	}
	v, err := p.ReadInt64()
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// parseSliceMerge decodes an array into the slice with encoding/json's
// reuse semantics: existing elements are decoded into (field merge),
// capacity is re-exposed before growing, and the result is truncated to
// the incoming length. null sets the slice to nil.
func parseSliceMerge[T any](p *Parser, dst *[]T, elem func(*Parser, *T) error) error {
	if p.TryNull() {
		*dst = nil
		return nil
	}
	if err := p.BeginArray(); err != nil {
		return err
	}
	s := *dst
	n := 0
	first := true
	for {
		more, err := p.ArrayNext(&first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		switch {
		case n < len(s):
		case n < cap(s):
			s = s[:n+1]
		default:
			var zero T
			s = append(s, zero)
		}
		if err := elem(p, &s[n]); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		// encoding/json replaces the slice with a fresh empty one for a
		// zero-element array, discarding any prior backing.
		*dst = make([]T, 0)
	} else {
		*dst = s[:n]
	}
	return nil
}

func (p *Parser) parseLayer(l *Layer) error {
	if p.TryNull() {
		return nil
	}
	if err := p.BeginObject(); err != nil {
		return err
	}
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		switch {
		case FoldEq(key, "ID"):
			err = p.stringField(&l.ID)
		case FoldEq(key, "NAME"):
			err = p.stringField(&l.Name)
		case FoldEq(key, "TYPE"):
			if p.TryNull() {
				continue
			}
			var s string
			if s, err = p.ReadString(); err == nil {
				l.Type = LayerType(s)
			}
		default:
			err = p.SkipValue()
		}
		if err != nil {
			return err
		}
	}
}

func (p *Parser) parseComponent(c *Component) error {
	if p.TryNull() {
		return nil
	}
	if err := p.BeginObject(); err != nil {
		return err
	}
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		switch {
		case FoldEq(key, "ID"):
			err = p.stringField(&c.ID)
		case FoldEq(key, "NAME"):
			err = p.stringField(&c.Name)
		case FoldEq(key, "ENTITY"):
			err = p.stringField(&c.Entity)
		case FoldEq(key, "LAYERS"):
			err = parseSliceMerge(p, &c.Layers, (*Parser).stringField)
		case FoldEq(key, "X-SPAN"):
			err = p.int64Field(&c.XSpan)
		case FoldEq(key, "Y-SPAN"):
			err = p.int64Field(&c.YSpan)
		case FoldEq(key, "PORTS"):
			err = parseSliceMerge(p, &c.Ports, (*Parser).parsePort)
		case FoldEq(key, "PARAMS"):
			err = p.parseParams(&c.Params)
		default:
			err = p.SkipValue()
		}
		if err != nil {
			return err
		}
	}
}

func (p *Parser) parsePort(pt *Port) error {
	if p.TryNull() {
		return nil
	}
	if err := p.BeginObject(); err != nil {
		return err
	}
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		switch {
		case FoldEq(key, "LABEL"):
			err = p.stringField(&pt.Label)
		case FoldEq(key, "LAYER"):
			err = p.stringField(&pt.Layer)
		case FoldEq(key, "X"):
			err = p.int64Field(&pt.X)
		case FoldEq(key, "Y"):
			err = p.int64Field(&pt.Y)
		default:
			err = p.SkipValue()
		}
		if err != nil {
			return err
		}
	}
}

func (p *Parser) parseTarget(t *Target) error {
	if p.TryNull() {
		return nil
	}
	if err := p.BeginObject(); err != nil {
		return err
	}
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		switch {
		case FoldEq(key, "COMPONENT"):
			err = p.stringField(&t.Component)
		case FoldEq(key, "PORT"):
			err = p.stringField(&t.Port)
		default:
			err = p.SkipValue()
		}
		if err != nil {
			return err
		}
	}
}

func (p *Parser) parseConnection(c *Connection) error {
	if p.TryNull() {
		return nil
	}
	if err := p.BeginObject(); err != nil {
		return err
	}
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		switch {
		case FoldEq(key, "ID"):
			err = p.stringField(&c.ID)
		case FoldEq(key, "NAME"):
			err = p.stringField(&c.Name)
		case FoldEq(key, "LAYER"):
			err = p.stringField(&c.Layer)
		case FoldEq(key, "SOURCE"):
			err = p.parseTarget(&c.Source)
		case FoldEq(key, "SINKS"):
			err = parseSliceMerge(p, &c.Sinks, (*Parser).parseTarget)
		case FoldEq(key, "PATHS"):
			err = parseSliceMerge(p, &c.Paths, (*Parser).parsePathElem)
		default:
			err = p.SkipValue()
		}
		if err != nil {
			return err
		}
	}
}

// parseXYInto decodes a {"x":..,"y":..} object into coordinates that the
// caller keeps across duplicate keys (pointer-merge semantics).
func (p *Parser) parseXYInto(x, y *int64) error {
	if err := p.BeginObject(); err != nil {
		return err
	}
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		switch {
		case FoldEq(key, "X"):
			err = p.int64Field(x)
		case FoldEq(key, "Y"):
			err = p.int64Field(y)
		default:
			err = p.SkipValue()
		}
		if err != nil {
			return err
		}
	}
}

// parsePathElem rebuilds a ChannelPath from a fresh wire value — the
// reference codec's element has an UnmarshalJSON, so encoding/json never
// merges into it.
func (p *Parser) parsePathElem(cp *ChannelPath) error {
	if p.TryNull() {
		*cp = ChannelPath{}
		return nil
	}
	if err := p.BeginObject(); err != nil {
		return err
	}
	var srcX, srcY, snkX, snkY int64
	var way []geom.Point
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch {
		case FoldEq(key, "SOURCE"):
			if p.TryNull() {
				continue
			}
			err = p.parseXYInto(&srcX, &srcY)
		case FoldEq(key, "SINK"):
			if p.TryNull() {
				continue
			}
			err = p.parseXYInto(&snkX, &snkY)
		case FoldEq(key, "WAYPOINTS"):
			err = parseSliceMerge(p, &way, (*Parser).parseWayPoint)
		default:
			err = p.SkipValue()
		}
		if err != nil {
			return err
		}
	}
	out := ChannelPath{Source: geom.Pt(srcX, srcY), Sink: geom.Pt(snkX, snkY)}
	// The wire loop appends from nil, so an empty wayPoints array lands
	// as a nil slice, exactly like the reflect path.
	if len(way) > 0 {
		out.Waypoints = append([]geom.Point(nil), way...)
	}
	*cp = out
	return nil
}

// parseWayPoint decodes one [x, y] pair with [2]int64 array semantics:
// missing elements stay zero, extra elements are skipped after syntax
// validation, null elements leave values unchanged.
func (p *Parser) parseWayPoint(pt *geom.Point) error {
	if p.TryNull() {
		return nil
	}
	if err := p.BeginArray(); err != nil {
		return err
	}
	idx := 0
	first := true
	for {
		more, err := p.ArrayNext(&first)
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
		switch idx {
		case 0:
			err = p.int64Field(&pt.X)
		case 1:
			err = p.int64Field(&pt.Y)
		default:
			err = p.SkipValue()
		}
		if err != nil {
			return err
		}
		idx++
	}
}

// parseFeatureElem rebuilds a Feature from a fresh wire value (the
// reference codec's element has an UnmarshalJSON) and resolves the tagged
// union exactly as that reference Feature.UnmarshalJSON does.
func (p *Parser) parseFeatureElem(f *Feature) error {
	if p.TryNull() {
		*f = Feature{Kind: FeatureComponent}
		return nil
	}
	if err := p.BeginObject(); err != nil {
		return err
	}
	var (
		name, id, layer, conn, typ         string
		depth                              int64
		locX, locY, srcX, srcY, snkX, snkY int64
		xspan, yspan, width                int64
		hasLoc, hasXSpan, hasYSpan         bool
		hasWidth, hasSrc, hasSnk           bool
	)
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch {
		case FoldEq(key, "NAME"):
			err = p.stringField(&name)
		case FoldEq(key, "ID"):
			err = p.stringField(&id)
		case FoldEq(key, "LAYER"):
			err = p.stringField(&layer)
		case FoldEq(key, "LOCATION"):
			if p.TryNull() {
				hasLoc = false
				continue
			}
			if !hasLoc {
				locX, locY = 0, 0
			}
			hasLoc = true
			err = p.parseXYInto(&locX, &locY)
		case FoldEq(key, "X-SPAN"):
			if p.TryNull() {
				hasXSpan = false
				continue
			}
			hasXSpan = true
			err = p.int64Field(&xspan)
		case FoldEq(key, "Y-SPAN"):
			if p.TryNull() {
				hasYSpan = false
				continue
			}
			hasYSpan = true
			err = p.int64Field(&yspan)
		case FoldEq(key, "CONNECTION"):
			err = p.stringField(&conn)
		case FoldEq(key, "WIDTH"):
			if p.TryNull() {
				hasWidth = false
				continue
			}
			hasWidth = true
			err = p.int64Field(&width)
		case FoldEq(key, "SOURCE"):
			if p.TryNull() {
				hasSrc = false
				continue
			}
			if !hasSrc {
				srcX, srcY = 0, 0
			}
			hasSrc = true
			err = p.parseXYInto(&srcX, &srcY)
		case FoldEq(key, "SINK"):
			if p.TryNull() {
				hasSnk = false
				continue
			}
			if !hasSnk {
				snkX, snkY = 0, 0
			}
			hasSnk = true
			err = p.parseXYInto(&snkX, &snkY)
		case FoldEq(key, "TYPE"):
			err = p.stringField(&typ)
		case FoldEq(key, "DEPTH"):
			err = p.int64Field(&depth)
		default:
			err = p.SkipValue()
		}
		if err != nil {
			return err
		}
	}
	*f = Feature{Name: name, ID: id, Layer: layer, Depth: depth}
	if conn != "" || typ == "channel" {
		f.Kind = FeatureChannel
		f.Connection = conn
		if hasWidth {
			f.Width = width
		}
		if hasSrc {
			f.Source = geom.Pt(srcX, srcY)
		}
		if hasSnk {
			f.Sink = geom.Pt(snkX, snkY)
		}
		return nil
	}
	f.Kind = FeatureComponent
	if hasLoc {
		f.Location = geom.Pt(locX, locY)
	}
	if hasXSpan {
		f.XSpan = xspan
	}
	if hasYSpan {
		f.YSpan = yspan
	}
	return nil
}

func (p *Parser) parseParams(dst *Params) error {
	if p.TryNull() {
		*dst = nil
		return nil
	}
	if err := p.BeginObject(); err != nil {
		return err
	}
	if *dst == nil {
		*dst = make(Params)
	}
	m := *dst
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		k := p.internBytesToString(key)
		var v float64
		if !p.TryNull() {
			if v, err = p.ReadFloat64(); err != nil {
				return err
			}
		}
		m[k] = v
	}
}

func (p *Parser) parseStringMap(dst *map[string]string) error {
	if p.TryNull() {
		*dst = nil
		return nil
	}
	if err := p.BeginObject(); err != nil {
		return err
	}
	if *dst == nil {
		*dst = make(map[string]string)
	}
	m := *dst
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		k := p.internBytesToString(key)
		var v string
		if !p.TryNull() {
			if v, err = p.ReadString(); err != nil {
				return err
			}
		}
		m[k] = v
	}
}

func (p *Parser) parseValveTypes(dst *map[string]ValveType) error {
	if p.TryNull() {
		*dst = nil
		return nil
	}
	if err := p.BeginObject(); err != nil {
		return err
	}
	if *dst == nil {
		*dst = make(map[string]ValveType)
	}
	m := *dst
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		k := p.internBytesToString(key)
		var v string
		if !p.TryNull() {
			if v, err = p.ReadString(); err != nil {
				return err
			}
		}
		m[k] = ValveType(v)
	}
}
