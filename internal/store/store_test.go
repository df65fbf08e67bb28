package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/socialgraph"
	"repro/internal/sparse"
)

// testModel assembles a deterministic model directly from random parameter
// blocks — no training run — shaped like a small trained CPD model.
func testModel(users, C, Z, V int, seed uint64) *core.Model {
	r := rng.New(seed)
	m := &core.Model{
		Cfg: core.Config{
			NumCommunities: C, NumTopics: Z, Seed: seed,
		}.WithDefaults(),
		NumUsers:   users,
		NumWords:   V,
		NumBuckets: 4,
		Pi:         sparse.NewDense(users, C),
		Theta:      sparse.NewDense(C, Z),
		Phi:        sparse.NewDense(Z, V),
		Eta:        sparse.NewTensor3(C, C, Z),
		Nu:         make([]float64, socialgraph.FeatureDim),
		PopFreq:    sparse.NewDense(4, Z),
	}
	fill := func(xs []float64) {
		for i := range xs {
			xs[i] = r.Float64()
		}
	}
	fill(m.Pi.Data)
	fill(m.Theta.Data)
	fill(m.Phi.Data)
	fill(m.Eta.Data)
	fill(m.Nu)
	fill(m.PopFreq.Data)
	m.Pi.NormalizeRows()
	m.Theta.NormalizeRows()
	m.Phi.NormalizeRows()
	m.PopFreq.NormalizeRows()
	docs := 3 * users
	m.DocCommunity = make([]int32, docs)
	m.DocTopic = make([]int32, docs)
	m.DocBucket = make([]int, docs)
	for i := 0; i < docs; i++ {
		m.DocCommunity[i] = int32(r.Intn(C))
		m.DocTopic[i] = int32(r.Intn(Z))
		m.DocBucket[i] = r.Intn(4)
	}
	m.Rehydrate()
	return m
}

func attachAttrs(m *core.Model, attrs int, seed uint64) {
	r := rng.New(seed)
	m.NumAttrs = attrs
	m.Xi = sparse.NewDense(m.Cfg.NumCommunities, attrs)
	for i := range m.Xi.Data {
		m.Xi.Data[i] = r.Float64()
	}
	m.Xi.NormalizeRows()
}

func denseEqual(t *testing.T, name string, a, b *sparse.Dense) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch", name)
	}
	if a == nil {
		return
	}
	if a.Rows != b.Rows || a.Cols != b.Cols || !reflect.DeepEqual(a.Data, b.Data) {
		t.Fatalf("%s differs after round trip", name)
	}
}

func modelsEquivalent(t *testing.T, a, b *core.Model) {
	t.Helper()
	if !reflect.DeepEqual(a.Cfg, b.Cfg) {
		t.Fatalf("config differs: %+v vs %+v", a.Cfg, b.Cfg)
	}
	if a.NumUsers != b.NumUsers || a.NumWords != b.NumWords ||
		a.NumBuckets != b.NumBuckets || a.NumAttrs != b.NumAttrs {
		t.Fatalf("dimensions differ")
	}
	denseEqual(t, "pi", a.Pi, b.Pi)
	denseEqual(t, "theta", a.Theta, b.Theta)
	denseEqual(t, "phi", a.Phi, b.Phi)
	denseEqual(t, "popfreq", a.PopFreq, b.PopFreq)
	denseEqual(t, "xi", a.Xi, b.Xi)
	if !reflect.DeepEqual(a.Eta.Data, b.Eta.Data) {
		t.Fatalf("eta differs")
	}
	if !reflect.DeepEqual(a.Nu, b.Nu) {
		t.Fatalf("nu differs")
	}
	if !reflect.DeepEqual(a.DocCommunity, b.DocCommunity) ||
		!reflect.DeepEqual(a.DocTopic, b.DocTopic) ||
		!reflect.DeepEqual(a.DocBucket, b.DocBucket) {
		t.Fatalf("document assignments differ")
	}
}

// fixture returns the committed snapshot fixture testdata/name. Nothing
// in the tree writes v1 any more, so every v1-decoder test reads or
// mutates these bytes.
func fixture(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// emptyModel is the zero-user model testdata/empty-v1.snap encodes.
func emptyModel() *core.Model {
	m := &core.Model{
		Cfg:     core.Config{NumCommunities: 2, NumTopics: 2}.WithDefaults(),
		Pi:      sparse.NewDense(0, 2),
		Theta:   sparse.NewDense(2, 2),
		Phi:     sparse.NewDense(2, 0),
		Eta:     sparse.NewTensor3(2, 2, 2),
		PopFreq: sparse.NewDense(0, 2),
	}
	m.Rehydrate()
	return m
}

func TestBinaryRoundTrip(t *testing.T) {
	m := goldenModel()
	got, err := Decode(bytes.NewReader(fixture(t, "golden-v1.snap")))
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, m, got)
	// The decoded model must have working caches: the Eq. 19 ranking and a
	// link probability must match the original bit-for-bit.
	q := []int32{3, 7}
	want, have := m.RankCommunities(q), got.RankCommunities(q)
	if !reflect.DeepEqual(want, have) {
		t.Fatalf("rank scores differ after round trip: %v vs %v", want, have)
	}
	if a, b := m.FriendshipProb(0, 1), got.FriendshipProb(0, 1); a != b {
		t.Fatalf("friendship prob differs: %v vs %v", a, b)
	}
}

func TestBinaryRoundTripWithAttributes(t *testing.T) {
	got, err := Decode(bytes.NewReader(fixture(t, "golden-v1.snap")))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumAttrs != 6 || got.Xi == nil {
		t.Fatalf("attribute block lost: NumAttrs=%d Xi=%v", got.NumAttrs, got.Xi != nil)
	}
	modelsEquivalent(t, goldenModel(), got)
}

// TestJSONBinaryEquivalence feeds the JSON, v1 and v2 encodings of the
// same model through the sniffing Load and requires identical models back.
func TestJSONBinaryEquivalence(t *testing.T) {
	m := goldenModel()
	inputs := map[string][]byte{
		"json": fixture(t, "golden.json"),
		"v1":   fixture(t, "golden-v1.snap"),
		"v2":   encodeV2ToBytes(t, m),
	}
	for name, raw := range inputs {
		got, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("loading %s: %v", name, err)
		}
		modelsEquivalent(t, m, got)
	}
}

// TestEmptyModelRoundTrip: a zero-user model decodes from the committed v1
// fixture and round-trips through the v2 writer.
func TestEmptyModelRoundTrip(t *testing.T) {
	m := emptyModel()
	for name, raw := range map[string][]byte{
		"v1": fixture(t, "empty-v1.snap"),
		"v2": encodeV2ToBytes(t, m),
	} {
		got, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		modelsEquivalent(t, m, got)
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	raw := fixture(t, "golden-v1.snap")
	// Flip one byte in every region of the file: header, early section,
	// deep payload, trailing checksum.
	for _, pos := range []int{2, 20, len(raw) / 2, len(raw) - 3} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x41
		if _, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d accepted", pos)
		}
	}
}

func TestTruncatedSnapshotRejected(t *testing.T) {
	raw := fixture(t, "golden-v1.snap")
	for _, n := range []int{0, 4, len(magic), 30, len(raw) / 3, len(raw) - 1} {
		if _, err := Decode(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestUnsupportedVersionRejected(t *testing.T) {
	raw := fixture(t, "golden-v1.snap")
	raw[6] = 0x7f // version byte
	_, err := Decode(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

// TestUnknownSectionSkipped verifies forward compatibility: a reader must
// skip (but checksum) sections it does not know.
func TestUnknownSectionSkipped(t *testing.T) {
	raw := fixture(t, "golden-v1.snap")
	// Splice an unknown section right after the magic.
	extra := buildSection("ZZZZ", []byte("future payload"))
	spliced := append(append(append([]byte(nil), raw[:len(magic)]...), extra...), raw[len(magic):]...)
	got, err := Decode(bytes.NewReader(spliced))
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, goldenModel(), got)
}

// buildSection frames one v1 section: tag, little-endian payload length,
// payload, and the payload's IEEE CRC32.
func buildSection(tag string, payload []byte) []byte {
	out := append([]byte(tag), binary.LittleEndian.AppendUint64(nil, uint64(len(payload)))...)
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// TestOverflowingHeaderRejected: crafted dimension headers whose element
// counts overflow the uint64 section-length cross-check must be rejected
// with an error, not panic in make().
func TestOverflowingHeaderRejected(t *testing.T) {
	u64 := func(vs ...uint64) []byte {
		var out []byte
		for _, v := range vs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			out = append(out, b[:]...)
		}
		return out
	}
	cases := map[string][]byte{
		// 8*rows*cols wraps to 0, so the 16-byte payload "matches".
		"dense-overflow": buildSection(tagPi, u64(3<<61, 2)),
		// Pairwise product exceeds the section budget.
		"tensor-overflow": buildSection(tagEta, u64(1<<28, 1<<28, 1)),
		// Slice count wraps 8*n around to 8, matching the 16-byte payload.
		"slice-overflow": buildSection(tagNu, u64(1<<61+1, 0)),
	}
	for name, sec := range cases {
		raw := append([]byte(magic), sec...)
		raw = append(raw, buildSection(tagEnd, nil)...)
		if _, err := Decode(bytes.NewReader(raw)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestSaveIsAtomicAndLoadFileSniffs(t *testing.T) {
	dir := t.TempDir()
	m := testModel(12, 3, 3, 30, 9)

	binPath := filepath.Join(dir, "model.snap")
	if err := SaveV2(binPath, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, m, got)

	// No temporary file may survive a successful SaveV2.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temporary file %s", e.Name())
		}
	}

	// LoadFile must also read the JSON format.
	jsonPath := filepath.Join(dir, "model.json")
	f, err := os.Create(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = LoadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, m, got)
}

// TestBinarySmallerThanJSON pins the size advantage: 8 bytes per float
// beats JSON's decimal expansion, in the committed v1 fixture and in the
// v2 encoding.
func TestBinarySmallerThanJSON(t *testing.T) {
	if v1, js := fixture(t, "golden-v1.snap"), fixture(t, "golden.json"); len(v1) >= len(js) {
		t.Fatalf("v1 fixture (%d bytes) not smaller than the JSON fixture (%d bytes)", len(v1), len(js))
	}
	m := testModel(50, 8, 6, 200, 10)
	var jsonBuf bytes.Buffer
	if err := m.Save(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	bin := encodeV2ToBytes(t, m)
	if len(bin) >= jsonBuf.Len() {
		t.Fatalf("v2 snapshot (%d bytes) not smaller than JSON (%d bytes)", len(bin), jsonBuf.Len())
	}
}

func TestEncodeRejectsIncompleteModel(t *testing.T) {
	if err := EncodeV2(&bytes.Buffer{}, &core.Model{}); err == nil {
		t.Fatal("model without parameter blocks accepted")
	}
}
