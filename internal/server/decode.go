package server

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// This file is the ingest path of /v1/classify: the body is read once into
// a pooled buffer and scanned once, straight into the request struct and
// one pixel slab, by a decoder that knows the request schema. The decoder
// only ever accepts: whatever it cannot prove encoding/json would decode to
// exactly the same struct is declined and handed, same bytes, to
// json.Unmarshal, which then decides the result and the error text.

// maxPooledBody is the largest body buffer kept for reuse, and the most
// readBody allocates up front on the word of a Content-Length header.
const maxPooledBody = 4 << 20

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// readBody reads r to EOF into a pooled buffer, sized from contentLength
// when the client declared one. Return the buffer with releaseBody.
func readBody(r io.Reader, contentLength int64) (*[]byte, error) {
	bp := bodyPool.Get().(*[]byte)
	buf := (*bp)[:0]
	// One byte beyond the declared length, so the Read that reports EOF
	// finds room and the buffer never grows for an honest client.
	if want := min(contentLength, maxPooledBody) + 1; int64(cap(buf)) < want {
		buf = make([]byte, 0, want)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			*bp = buf
			if err == io.EOF {
				return bp, nil
			}
			releaseBody(bp)
			return nil, err
		}
	}
}

func releaseBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody+1 {
		bodyPool.Put(bp)
	}
}

// decodeClassify decodes a request body. Nothing in the result aliases b.
func decodeClassify(b []byte) (classifyRequest, error) {
	var req classifyRequest
	if scanClassify(b, &req) {
		return req, nil
	}
	req = classifyRequest{}
	err := json.Unmarshal(b, &req)
	return req, err
}

// scanClassify is the schema-directed decoder. It reports true, with req
// filled in, only for a body that json.Unmarshal accepts and decodes to the
// same field values, pixels bit for bit. The grammar it takes on:
//
//	request = { "image": image | "images": [image, ...] | "timeout_ms": int | other }
//	image   = { "channels": int | "height": int | "width": int | "pixels": [number, ...] | other }
//
// with members in any order, any JSON whitespace, each known key at most
// once, and other = any key that cannot match a field (unescaped ASCII,
// different from every field name of the object even ignoring case) with
// any JSON value nested at most maxSkipDepth deep. It declines what
// encoding/json treats specially or rejects: escaped, non-ASCII or
// case-folded keys, null or a wrong-typed value in a known field,
// duplicate known keys, numbers ParseFloat reports out of range, and any
// syntax error, truncation or trailing data.
//
// All pixels of a request land in one slab that the images sub-slice. It is
// sized from the body's comma count: k pixels of one array are separated
// by k-1 commas and two arrays by at least one more, so commas+1 bounds the
// total. The slab is a plain allocation, not pooled: an image handed to
// the batcher may be shared with a coalesced flight that outlives the
// handler.
func scanClassify(b []byte, req *classifyRequest) bool {
	d := scanner{b: b}
	const (
		seenImage = 1 << iota
		seenImages
		seenTimeout
	)
	seen := 0
	ok := d.take('{') && d.each('}', func() bool {
		key, ok := d.key()
		if !ok {
			return false
		}
		var field int
		switch string(key) {
		case "image":
			field = seenImage
			req.Image = new(imageJSON)
			ok = d.image(req.Image)
		case "images":
			field = seenImages
			req.Images = []imageJSON{}
			ok = d.take('[') && d.each(']', func() bool {
				req.Images = append(req.Images, imageJSON{})
				return d.image(&req.Images[len(req.Images)-1])
			})
		case "timeout_ms":
			field = seenTimeout
			req.TimeoutMS, ok = d.int()
		default:
			return !foldsTo(key, "image", "images", "timeout_ms") && d.skipValue(0)
		}
		first := seen&field == 0
		seen |= field
		return ok && first
	})
	d.ws()
	return ok && d.i == len(b)
}

// maxSkipDepth bounds the nesting the scanner follows inside a value it
// skips; deeper values go to encoding/json (which has its own limit).
const maxSkipDepth = 16

// scanner is a cursor over the body. Reading past the end yields 0 bytes,
// which no production accepts.
type scanner struct {
	b    []byte
	i    int
	slab []float64 // all pixels of the request; len is the fill mark
}

func (d *scanner) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *scanner) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// take consumes c if it is the next byte after optional whitespace.
func (d *scanner) take(c byte) bool {
	d.ws()
	if d.peek() != c {
		return false
	}
	d.i++
	return true
}

// each walks a container whose opening bracket has been consumed, up to
// and including its closing bracket c: elem is called at the start of
// every element and consumes it.
func (d *scanner) each(c byte, elem func() bool) bool {
	if d.take(c) {
		return true
	}
	for elem() {
		if !d.take(',') {
			return d.take(c)
		}
	}
	return false
}

// key consumes `"name" :` and returns name, declining any key holding an
// escape, a control character or a non-ASCII byte.
func (d *scanner) key() ([]byte, bool) {
	d.ws()
	if d.peek() != '"' {
		return nil, false
	}
	start := d.i + 1
	for i := start; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			d.i = i + 1
			d.ws()
			if d.peek() != ':' {
				return nil, false
			}
			d.i++
			return d.b[start:i], true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// foldsTo reports whether key equals one of names ignoring ASCII case —
// encoding/json's field match for an ASCII key.
func foldsTo(key []byte, names ...string) bool {
	for _, name := range names {
		if len(key) == len(name) && bytes.EqualFold(key, []byte(name)) {
			return true
		}
	}
	return false
}

// image decodes one image object into im.
func (d *scanner) image(im *imageJSON) bool {
	const (
		seenChannels = 1 << iota
		seenHeight
		seenWidth
		seenPixels
	)
	seen := 0
	return d.take('{') && d.each('}', func() bool {
		key, ok := d.key()
		if !ok {
			return false
		}
		var field int
		switch string(key) {
		case "channels":
			field = seenChannels
			im.Channels, ok = d.int()
		case "height":
			field = seenHeight
			im.Height, ok = d.int()
		case "width":
			field = seenWidth
			im.Width, ok = d.int()
		case "pixels":
			field = seenPixels
			im.Pixels, ok = d.pixels()
		default:
			return !foldsTo(key, "channels", "height", "width", "pixels") && d.skipValue(0)
		}
		first := seen&field == 0
		seen |= field
		return ok && first
	})
}

// int decodes a JSON number that is an integer literal fitting an int —
// the only numbers encoding/json stores into an int field.
func (d *scanner) int() (int, bool) {
	d.ws()
	neg := d.peek() == '-'
	if neg {
		d.i++
	}
	start := d.i
	var v int64
	for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
		v = v*10 + int64(c-'0')
		d.i++
		if d.i-start > 18 {
			return 0, false
		}
	}
	digits := d.i - start
	if digits == 0 || (digits > 1 && d.b[start] == '0') {
		return 0, false
	}
	switch d.peek() {
	case '.', 'e', 'E':
		return 0, false
	}
	if neg {
		v = -v
	}
	return int(v), int64(int(v)) == v
}

var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// pixels decodes an array of numbers into the slab and returns its window.
func (d *scanner) pixels() ([]float64, bool) {
	if !d.take('[') {
		return nil, false
	}
	if d.slab == nil {
		d.slab = make([]float64, 0, min(bytes.Count(d.b, []byte{','}), len(d.b)/2)+1)
	}
	start := len(d.slab)
	if d.take(']') {
		return d.slab[start:start:start], true
	}
	for {
		d.ws()
		f, end, ok := parsePixel(d.b, d.i)
		if !ok || len(d.slab) == cap(d.slab) {
			return nil, false
		}
		d.slab = append(d.slab, f)
		d.i = end
		if !d.take(',') {
			return d.slab[start:len(d.slab):len(d.slab)], d.take(']')
		}
	}
}

// parsePixel decodes the JSON number at b[i:] and returns it with the index
// just past it. The value is strconv.ParseFloat's, bit for bit: a number of
// at most 15 significant digits m and a decimal exponent |e| ≤ 22 is
// float64(m)·10^e or float64(m)/10^-e — both operands are exact doubles
// (m < 2^53, 10^22 = 2^22·5^22 with 5^22 < 2^53), so the one IEEE
// operation rounds the true value once, which is what ParseFloat returns
// (Clinger's fast path, also strconv's own). Every other number is
// ParseFloat's on the token. ok is false for anything that is not a JSON
// number or that ParseFloat reports out of range.
func parsePixel(b []byte, i int) (f float64, end int, ok bool) {
	var (
		m    uint64 // the digits, exact while sig ≤ 19
		sig  int    // digits from the first nonzero one on (from the first one while that is ≤ 15)
		frac int    // digits after the point
		exp  int    // written exponent, exact while |exp| < 10000
	)
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// Integer part: 0, or a run of digits that does not start with one.
	from := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	sig = i - from
	if sig == 0 || (b[from] == '0' && sig > 1) {
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		point := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		if frac = i - point; frac == 0 {
			return 0, 0, false
		}
		sig += frac
	}
	if sig > 15 {
		// Leading zeros are not significant: 0.000…0123 has a short m.
		for k := from; k < i && (b[k] == '0' || b[k] == '.'); k++ {
			if b[k] == '0' {
				sig--
			}
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		from := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if exp < 10000 {
				exp = exp*10 + int(b[i]-'0')
			}
		}
		if i == from {
			return 0, 0, false
		}
		if eneg {
			exp = -exp
		}
	}
	if e := exp - frac; sig <= 15 && -22 <= e && e <= 22 && -10000 < exp && exp < 10000 {
		f = float64(m)
		if e < 0 {
			f /= pow10[-e]
		} else {
			f *= pow10[e]
		}
		if neg {
			f = -f
		}
		return f, i, true
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, i, err == nil
}

// skipValue consumes one JSON value of any type, declining strings with
// escapes or control characters (encoding/json validates those; here they
// only cost the fast path) and nesting beyond maxSkipDepth.
func (d *scanner) skipValue(depth int) bool {
	d.ws()
	switch c := d.peek(); {
	case c == '"':
		for i := d.i + 1; i < len(d.b); i++ {
			switch c := d.b[i]; {
			case c == '"':
				d.i = i + 1
				return true
			case c == '\\' || c < 0x20:
				return false
			}
		}
		return false
	case c == '-' || ('0' <= c && c <= '9'):
		_, end, ok := parsePixel(d.b, d.i)
		d.i = end
		return ok
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '[' && depth < maxSkipDepth:
		d.i++
		return d.each(']', func() bool { return d.skipValue(depth + 1) })
	case c == '{' && depth < maxSkipDepth:
		d.i++
		return d.each('}', func() bool {
			_, ok := d.key()
			return ok && d.skipValue(depth+1)
		})
	}
	return false
}

func (d *scanner) literal(s string) bool {
	if !bytes.HasPrefix(d.b[d.i:], []byte(s)) {
		return false
	}
	d.i += len(s)
	return true
}
