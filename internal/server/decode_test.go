package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// sameRequest reports whether two decoded requests agree on every field,
// pixels by bit pattern and slices by nil-ness as well as content.
func sameRequest(a, b classifyRequest) error {
	sameImage := func(what string, x, y imageJSON) error {
		if x.Channels != y.Channels || x.Height != y.Height || x.Width != y.Width {
			return fmt.Errorf("%s: dims %dx%dx%d vs %dx%dx%d", what, x.Channels, x.Height, x.Width, y.Channels, y.Height, y.Width)
		}
		if len(x.Pixels) != len(y.Pixels) || (x.Pixels == nil) != (y.Pixels == nil) {
			return fmt.Errorf("%s: %d pixels (nil %v) vs %d (nil %v)", what, len(x.Pixels), x.Pixels == nil, len(y.Pixels), y.Pixels == nil)
		}
		for i := range x.Pixels {
			if math.Float64bits(x.Pixels[i]) != math.Float64bits(y.Pixels[i]) {
				return fmt.Errorf("%s: pixel %d: %v (%#x) vs %v (%#x)", what, i,
					x.Pixels[i], math.Float64bits(x.Pixels[i]), y.Pixels[i], math.Float64bits(y.Pixels[i]))
			}
		}
		return nil
	}
	if a.TimeoutMS != b.TimeoutMS {
		return fmt.Errorf("timeout_ms %d vs %d", a.TimeoutMS, b.TimeoutMS)
	}
	if (a.Image == nil) != (b.Image == nil) {
		return fmt.Errorf("image nil %v vs %v", a.Image == nil, b.Image == nil)
	}
	if a.Image != nil {
		if err := sameImage("image", *a.Image, *b.Image); err != nil {
			return err
		}
	}
	if len(a.Images) != len(b.Images) || (a.Images == nil) != (b.Images == nil) {
		return fmt.Errorf("%d images (nil %v) vs %d (nil %v)", len(a.Images), a.Images == nil, len(b.Images), b.Images == nil)
	}
	for i := range a.Images {
		if err := sameImage(fmt.Sprint("images[", i, "]"), a.Images[i], b.Images[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkDecode is the differential property: on any bytes, the scanner
// accepts only what json.Unmarshal accepts with the same result, and
// decodeClassify as a whole agrees with json.Unmarshal on accept/reject and
// on every field. It reports whether the scanner took the body.
func checkDecode(t *testing.T, body []byte) (fast bool) {
	t.Helper()
	body = body[:len(body):len(body)] // a read past the end panics
	var want classifyRequest
	wantErr := json.Unmarshal(body, &want)

	var scanned classifyRequest
	if fast = scanClassify(body, &scanned); fast {
		if wantErr != nil {
			t.Fatalf("scanner accepted %q, json.Unmarshal rejects it: %v", body, wantErr)
		}
		if err := sameRequest(scanned, want); err != nil {
			t.Fatalf("scanner vs json.Unmarshal on %q: %v", body, err)
		}
	}
	got, gotErr := decodeClassify(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decodeClassify error %v, json.Unmarshal error %v, on %q", gotErr, wantErr, body)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("decodeClassify error %q, json.Unmarshal error %q", gotErr, wantErr)
		}
		return fast
	}
	if err := sameRequest(got, want); err != nil {
		t.Fatalf("decodeClassify vs json.Unmarshal on %q: %v", body, err)
	}
	return fast
}

// decodeSeeds are bodies with the path each must take: fast means the
// scanner has to accept (not merely be allowed to).
var decodeSeeds = []struct {
	body string
	fast bool
}{
	// Accepted shapes.
	{`{"image":{"channels":1,"height":2,"width":2,"pixels":[0.1,0.25,1,0]}}`, true},
	{`{"images":[{"channels":1,"height":1,"width":2,"pixels":[0.5,0.75]},{"channels":1,"height":1,"width":2,"pixels":[1,0]}],"timeout_ms":250}`, true},
	{`{"timeout_ms":5,"image":{"pixels":[1,2],"width":2,"height":1,"channels":1}}`, true},
	{" \t\r\n{ \"image\" : { \"channels\" : 1 , \"pixels\" : [ 1 , 2 ] } } \n", true},
	{`{}`, true},
	{`{"images":[]}`, true},
	{`{"image":{}}`, true},
	{`{"image":{"pixels":[]}}`, true},
	{`{"images":[{},{"pixels":[1]},{"pixels":[]},{"pixels":[2,3]}]}`, true},
	{`{"image":{"pixels":[1]},"images":[{"pixels":[2]}]}`, true},
	{`{"image":{"channels":-3,"height":0,"width":-0,"pixels":[-0,-0.0,0e5,-1e-3,1E+2,1.5e1]}}`, true},
	{`{"image":{"pixels":[0.1234567890123456789,12345678901234567890,1e22,1e23,1e-22,1e-23,123456789012345.6,1234567890123456,4.9e-324,1.7976931348623157e308,2.2250738585072011e-308,0.000000000000000000000000000001]}}`, true},
	{`{"image":{"pixels":[9007199254740993,0.30000000000000004,179769313486231570000000000000000000000,1e0000000000000000000005,0.0000000000000000000000000000000000000000000000000000001e60]}}`, true},
	// Unknown keys, any value type, nested.
	{`{"note":"hi","image":{"id":7,"pixels":[1],"meta":{"a":[1,2,{"b":null}],"c":true,"d":false,"e":-1.5e3}},"tags":[],"x":{}}`, true},
	{`{"pixels":[1,2],"image":{"image":3,"timeout_ms":"x","pixels":[4]}}`, true},
	{`{"a":[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]}`, true},
	// Declined, then accepted by encoding/json.
	{`{"a":[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]}`, false},
	{`{"Image":{"pixels":[1]}}`, false},
	{`{"image":{"PIXELS":[1],"Channels":2}}`, false},
	{`{"TIMEOUT_MS":3}`, false},
	{`{"\u0069mage":{"pixels":[1]}}`, false},
	{`{"image":{"pixel\u0073":[1]}}`, false},
	{`{"image":{"pixelſ":[1]}}`, false},
	{"{\"Key\":1,\"timeout_ms\":2}", false},
	{`{"note":"a\"b","timeout_ms":2}`, false},
	{`{"image":null}`, false},
	{`{"images":null}`, false},
	{`{"image":{"pixels":null}}`, false},
	{`{"timeout_ms":null}`, false},
	{`{"images":[null]}`, false},
	{`{"image":{"pixels":[1]},"image":{"channels":2}}`, false},
	{`{"image":{"channels":1,"channels":2}}`, false},
	{`{"timeout_ms":1,"timeout_ms":2}`, false},
	{`{"images":[{"pixels":[1]}],"images":[{"pixels":[2]}]}`, false},
	{`{"x":1e999,"timeout_ms":2}`, false},
	{`null`, false},
	// Rejected by both.
	{`{"image":{"pixels":[null]}}`, false},
	{`{"image":{"pixels":[1,"2"]}}`, false},
	{`{"image":{"pixels":[1e999]}}`, false},
	{`{"image":{"pixels":[-1e400]}}`, false},
	{`{"image":{"channels":1.0}}`, false},
	{`{"image":{"channels":1e2}}`, false},
	{`{"image":{"channels":"1"}}`, false},
	{`{"image":{"channels":99999999999999999999}}`, false},
	{`{"timeout_ms":9223372036854775808}`, false},
	{`{"timeout_ms":2.5}`, false},
	{`{"image":[1]}`, false},
	{`{"images":{"pixels":[1]}}`, false},
	{`{"image":{"pixels":{"0":1}}}`, false},
	{`{"image":{"pixels":[01]}}`, false},
	{`{"image":{"pixels":[1.]}}`, false},
	{`{"image":{"pixels":[.5]}}`, false},
	{`{"image":{"pixels":[+1]}}`, false},
	{`{"image":{"pixels":[1e]}}`, false},
	{`{"image":{"pixels":[1e+]}}`, false},
	{`{"image":{"pixels":[-]}}`, false},
	{`{"image":{"pixels":[0x10]}}`, false},
	{`{"image":{"pixels":[NaN]}}`, false},
	{`{"image":{"pixels":[Infinity]}}`, false},
	{`{"image":{"pixels":[1_000]}}`, false},
	{`{"image":{"pixels":[1,]}}`, false},
	{`{"image":{"pixels":[,1]}}`, false},
	{`{"image":{"pixels":[1 2]}}`, false},
	{`{"image":{"pixels":[1],}}`, false},
	{`{"image":{"pixels":[1]},}`, false},
	{`{"image":{"pixels":[1]}`, false},
	{`{"image":{"pixels":[1`, false},
	{`{"image":{"pixels":[1,2`, false},
	{`{"image":{"pix`, false},
	{`{"image"`, false},
	{`{"image":`, false},
	{`{`, false},
	{``, false},
	{`   `, false},
	{`{"image":{"pixels":[1]}} x`, false},
	{`{"image":{"pixels":[1]}}{}`, false},
	{`{"image":{"pixels":[1]}}]`, false},
	{`{"timeout_ms":1}` + "\x00", false},
	{`{"timeout_ms" 1}`, false},
	{`{timeout_ms:1}`, false},
	{`{"a":tru,"timeout_ms":1}`, false},
	{`{"a":nul}`, false},
	{`{"a":"unterminated}`, false},
	{"{\"a\":\"ctl\x01\",\"timeout_ms\":1}", false},
	{"{\"a\x01\":1}", false},
	{`[]`, false},
	{`"image"`, false},
	{`7`, false},
}

// TestDecodeClassifySeeds runs the differential property over the seed
// bodies and pins which of them the scanner itself must accept.
func TestDecodeClassifySeeds(t *testing.T) {
	for _, s := range decodeSeeds {
		if fast := checkDecode(t, []byte(s.body)); fast != s.fast {
			t.Errorf("scanner accepted = %v, want %v, on %q", fast, s.fast, s.body)
		}
	}
}

// FuzzDecodeClassify is the differential fuzz target of the ingest decoder
// against encoding/json.
func FuzzDecodeClassify(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s.body))
	}
	f.Add(canonicalBody(2, 12, 1))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// jsonNumber reports whether s is exactly one JSON number: a JSON value
// that starts like a number and ends in a digit (so no padding).
func jsonNumber(s string) bool {
	digit := func(c byte) bool { return '0' <= c && c <= '9' }
	return s != "" && (s[0] == '-' || digit(s[0])) && digit(s[len(s)-1]) && json.Valid([]byte(s))
}

// checkParsePixel holds parsePixel to strconv.ParseFloat: the token it
// takes is a JSON number whose value it returns bit for bit; it is the
// longest such prefix; and it refuses exactly the numbers ParseFloat
// reports out of range.
func checkParsePixel(t *testing.T, s string) {
	t.Helper()
	f, n, ok := parsePixel([]byte(s), 0)
	if ok {
		tok := s[:n]
		if !jsonNumber(tok) {
			t.Fatalf("parsePixel(%q) took %q, not a JSON number", s, tok)
		}
		want, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			t.Fatalf("parsePixel(%q) accepted %q, ParseFloat: %v", s, tok, err)
		}
		if math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("parsePixel(%q) = %v (%#x), ParseFloat %v (%#x)", tok, f, math.Float64bits(f), want, math.Float64bits(want))
		}
		if n < len(s) && jsonNumber(s[:n+1]) {
			t.Fatalf("parsePixel(%q) stopped at %q, a longer prefix is a number", s, tok)
		}
	}
	if jsonNumber(s) {
		_, err := strconv.ParseFloat(s, 64)
		if ok != (err == nil) || (ok && n != len(s)) {
			t.Fatalf("parsePixel(%q) = ok %v, n %d; ParseFloat error %v", s, ok, n, err)
		}
	}
}

var pixelSeeds = []string{
	"0", "-0", "1", "-1", "0.5", "0.4863", "1e-3", "1E+2", "-1.5e1", "0e999", "-0e-999", "0.0", "-0.000",
	"123456789012345", "1234567890123456", "0.123456789012345", "0.1234567890123456",
	"0.000000000000000000000123456789012345", "123456789012345000000000", "1e22", "1e23", "1e-22", "1e-23",
	"123456789012345e7", "123456789012345e8", "1.23456789012345e36", "9007199254740993", "0.30000000000000004",
	"4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "1.7976931348623157e308", "1.7976931348623159e308",
	"1e308", "1e309", "-1e309", "1e999", "1e-999", "2.2250738585072011e-308", "2.2250738585072014e-308",
	"1e0000000000000000000005", "1e99999", "1e100000", "0." + strings.Repeat("0", 9990) + "1e10000", "0." + strings.Repeat("0", 9990) + "1e100000",
	"1" + strings.Repeat("0", 400), "0." + strings.Repeat("9", 40), "18446744073709551616", "99999999999999999999999",
	"", "-", "+1", ".5", "1.", "1e", "1e+", "01", "00", "-01", "0x10", "1_0", "NaN", "Inf", "infinity", "1,2", "1]", "1 ", " 1", "1.5.2", "1e5e5", "--1", "1-",
}

func TestParsePixelSeeds(t *testing.T) {
	for _, s := range pixelSeeds {
		checkParsePixel(t, s)
		checkPixelLoop(t, s)
	}
	// Every short decimal, the shape image bodies are made of, and random
	// digit strings around the 15-digit / 10^±22 edges of the fast path.
	for k := 0; k <= 10000; k++ {
		for _, s := range []string{strconv.FormatFloat(float64(k)/10000, 'f', -1, 64), fmt.Sprintf("0.%04d", k%10000)} {
			checkParsePixel(t, s)
			checkPixelLoop(t, s)
		}
	}
	rng := rand.New(rand.NewSource(15))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	for i := 0; i < 200000; i++ {
		s := strconv.Itoa(rng.Intn(10))
		if rng.Intn(4) > 0 {
			s = strconv.Itoa(1+rng.Intn(9)) + digits(rng.Intn(18))
		}
		if rng.Intn(3) > 0 {
			s += "." + digits(1+rng.Intn(24))
		}
		if rng.Intn(2) == 0 {
			s += fmt.Sprintf("e%d", rng.Intn(60)-30)
		}
		if rng.Intn(2) == 0 {
			s = "-" + s
		}
		checkParsePixel(t, s)
	}
	for i := 0; i < 100000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		checkParsePixel(t, strconv.FormatFloat(f, 'g', -1, 64))
		checkParsePixel(t, strconv.FormatFloat(f, 'e', 20, 64))
	}
}

// checkPixelLoop holds the scanner's pixel loop, whose short form decodes
// without parsePixel, to ParseFloat: tok twice in one array, once ending
// near the end of the body and once followed by room for a word read, must
// decode to ParseFloat's value bit for bit when tok is a JSON number
// ParseFloat takes, and be declined when ParseFloat reports it out of
// range. Every body is also held to the differential property.
func checkPixelLoop(t *testing.T, tok string) {
	t.Helper()
	for _, pad := range []string{"", strings.Repeat(" ", 12)} {
		body := []byte(`{"image":{"pixels":[` + tok + "," + tok + "]}}" + pad)
		fast := checkDecode(t, body)
		if !jsonNumber(tok) {
			continue
		}
		want, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			if fast {
				t.Fatalf("scanner took %q, ParseFloat: %v", body, err)
			}
			continue
		}
		var req classifyRequest
		if !scanClassify(body, &req) {
			t.Fatalf("scanner declined %q", body)
		}
		for _, p := range req.Image.Pixels {
			if math.Float64bits(p) != math.Float64bits(want) {
				t.Fatalf("scanner read %q as %v (%#x), ParseFloat %v (%#x)", tok, p, math.Float64bits(p), want, math.Float64bits(want))
			}
		}
	}
}

func FuzzParsePixel(f *testing.F) {
	for _, s := range pixelSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkParsePixel(t, s)
		checkPixelLoop(t, s)
	})
}

// TestPixelsShortFormBoundaries walks the pixel loop's short form across
// its edges: every shape it takes (d, d.d … d.ddddddd) and the eight-digit
// fraction it leaves to parsePixel, each followed by every byte that ends,
// extends or breaks a number, with the token ending 0–11 bytes before the
// end of the body — truncated bodies included. The scanner must agree with
// json.Unmarshal and take every valid body.
func TestPixelsShortFormBoundaries(t *testing.T) {
	shapes := []string{
		"0", "7", "0.5", "9.99", "1.000", "0.4863", "3.14159", "0.999999",
		"9.9999999", "0.0000001", "0.12345678",
	}
	// Each following byte opens a tail that completes the body, padded
	// with spaces so that every cut from 0 to 11 bytes exists.
	tails := []string{",1]}}", "]}}", " ]}}", "\t]}}", "e1]}}", "E-2]}}", ".5]}}", "4]}}"}
	for _, tok := range shapes {
		for _, tail := range tails {
			tail += strings.Repeat(" ", 11)
			for k := 0; k <= 11; k++ {
				for _, head := range []string{`{"image":{"pixels":[`, `{"image":{"pixels":[0.25, `} {
					body := []byte(head + tok + tail[:k])
					if fast := checkDecode(t, body); !fast && json.Valid(body) {
						t.Errorf("scanner declined the valid body %q", body)
					}
				}
			}
		}
	}
}

// canonicalBody is the request json.Marshal makes for n images of the given
// pixel count, pixels rounded to four decimals like the benchmark's bodies.
func canonicalBody(n, pixels int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	image := func() imageJSON {
		im := imageJSON{Channels: 3, Height: pixels / 3, Width: 1, Pixels: make([]float64, pixels)}
		for i := range im.Pixels {
			im.Pixels[i] = math.Round(rng.Float64()*1e4) / 1e4
		}
		return im
	}
	var req classifyRequest
	if n == 1 {
		im := image()
		req.Image = &im
	} else {
		for i := 0; i < n; i++ {
			req.Images = append(req.Images, image())
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}

// TestCanonicalBodyTakesFastPath: what json.Marshal (and therefore every
// Go client, the load generator and the benchmark) sends never reaches
// encoding/json on the way in — with shortest-round-trip pixels too, which
// leave the 15-digit float fast path but not the scanner.
func TestCanonicalBodyTakesFastPath(t *testing.T) {
	for _, n := range []int{1, 32} {
		if !checkDecode(t, canonicalBody(n, 3072, 7)) {
			t.Errorf("canonical %d-image body was declined by the scanner", n)
		}
	}
	rng := rand.New(rand.NewSource(8))
	im := imageJSON{Channels: 1, Height: 64, Width: 64, Pixels: make([]float64, 4096)}
	for i := range im.Pixels {
		im.Pixels[i] = rng.Float64()
	}
	body, err := json.Marshal(classifyRequest{Images: []imageJSON{im, im}, TimeoutMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !checkDecode(t, append(body, '\n')) { // json.Encoder's framing
		t.Error("body of full-precision pixels was declined by the scanner")
	}
}

// TestDecodeAllocs pins the steady-state cost of decoding a 32-image body
// at the slab, the image headers and nothing per pixel or per image.
func TestDecodeAllocs(t *testing.T) {
	body := canonicalBody(32, 3072, 9)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeClassify(body); err != nil {
			t.Fatal(err)
		}
	})
	// One slab plus the append growth of a 32-element []imageJSON (1, 2, 4,
	// 8, 16, 32) and the empty slice it starts from.
	if allocs > 8 {
		t.Errorf("decoding a 32-image body took %v allocations, want at most 8", allocs)
	}
}

// TestReadBodyReusesBuffer: with the length declared, a second request of
// the same size reads into the first one's buffer.
func TestReadBodyReusesBuffer(t *testing.T) {
	body := canonicalBody(2, 3072, 10)
	read := func() {
		bp, err := readBody(bytes.NewReader(body), int64(len(body)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(*bp, body) {
			t.Fatal("readBody returned different bytes")
		}
		releaseBody(bp)
	}
	read()
	if allocs := testing.AllocsPerRun(20, read); allocs > 1 { // the bytes.Reader
		t.Errorf("readBody allocated %v times per steady-state request, want at most 1", allocs)
	}
	// Undeclared length: same bytes, grown on demand.
	bp, err := readBody(bytes.NewReader(body), -1)
	if err != nil || !bytes.Equal(*bp, body) {
		t.Fatalf("readBody without a length: err %v, equal %v", err, err == nil && bytes.Equal(*bp, body))
	}
	releaseBody(bp)
}

func BenchmarkDecodeClassify(b *testing.B) {
	for _, n := range []int{1, 32} {
		body := canonicalBody(n, 3072, 11)
		b.Run(fmt.Sprintf("b%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeClassify(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
