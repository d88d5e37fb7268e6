package encrypt

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Token is TokenAppend's token as a string of its own.
func (k *Keyring) Token(domain string, plaintext []byte) string {
	return string(k.TokenAppend(nil, domain, plaintext))
}

func testKeyring(t testing.TB) *Keyring {
	t.Helper()
	master := make([]byte, KeySize)
	for i := range master {
		master[i] = byte(i * 7)
	}
	k, err := NewKeyring(master)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestRoundTrip(t *testing.T) {
	k := testKeyring(t)
	msgs := [][]byte{nil, {}, []byte("x"), []byte("SELECT qty FROM toys WHERE toy_id=?"), bytes.Repeat([]byte{0xAA}, 4096)}
	for _, m := range msgs {
		ct := k.Seal("stmt", m)
		pt, err := k.Open("stmt", ct)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(pt, m) {
			t.Errorf("round trip changed %q -> %q", m, pt)
		}
	}
}

func TestDeterminism(t *testing.T) {
	k := testKeyring(t)
	a := k.Seal("stmt", []byte("hello"))
	b := k.Seal("stmt", []byte("hello"))
	if !bytes.Equal(a, b) {
		t.Error("encryption not deterministic")
	}
	c := k.Seal("stmt", []byte("hellp"))
	if bytes.Equal(a, c) {
		t.Error("distinct plaintexts collided")
	}
}

func TestDomainSeparation(t *testing.T) {
	k := testKeyring(t)
	a := k.Seal("stmt", []byte("hello"))
	b := k.Seal("result", []byte("hello"))
	if bytes.Equal(a, b) {
		t.Error("domains not separated")
	}
	if _, err := k.Open("result", a); err != ErrTampered {
		t.Error("cross-domain decryption accepted")
	}
}

func TestTamperDetection(t *testing.T) {
	k := testKeyring(t)
	ct := k.Seal("stmt", []byte("sensitive"))
	for i := range ct {
		bad := bytes.Clone(ct)
		bad[i] ^= 0x01
		if _, err := k.Open("stmt", bad); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
	if _, err := k.Open("stmt", ct[:4]); err != ErrTampered {
		t.Error("truncated ciphertext accepted")
	}
}

func TestKeySeparation(t *testing.T) {
	k1 := testKeyring(t)
	other := make([]byte, KeySize)
	other[0] = 1
	k2 := MustNewKeyring(other)
	ct := k1.Seal("stmt", []byte("hello"))
	if _, err := k2.Open("stmt", ct); err == nil {
		t.Error("foreign-key decryption accepted")
	}
	if k1.Token("d", []byte("x")) == k2.Token("d", []byte("x")) {
		t.Error("tokens collide across keys")
	}
}

func TestTokenDeterministicAndSeparated(t *testing.T) {
	k := testKeyring(t)
	if k.Token("a", []byte("x")) != k.Token("a", []byte("x")) {
		t.Error("token not deterministic")
	}
	if k.Token("a", []byte("x")) == k.Token("b", []byte("x")) {
		t.Error("token domains not separated")
	}
	if k.Token("a", []byte("x")) == k.Token("a", []byte("y")) {
		t.Error("distinct plaintext tokens collide")
	}
	// Token and Seal outputs never relate trivially.
	if k.Token("a", []byte("x"))[:16] == string(k.Seal("a", []byte("x"))[:16]) {
		t.Error("token prefix equals SIV")
	}
}

func TestBadKeySize(t *testing.T) {
	if _, err := NewKeyring([]byte("short")); err == nil {
		t.Error("short key accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewKeyring did not panic")
		}
	}()
	MustNewKeyring(nil)
}

func TestRoundTripProperty(t *testing.T) {
	k := testKeyring(t)
	f := func(msg []byte, domain string) bool {
		pt, err := k.Open(domain, k.Seal(domain, msg))
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCiphertextHidesPlaintext(t *testing.T) {
	// The ciphertext body must not contain the plaintext verbatim.
	k := testKeyring(t)
	msg := []byte("this-is-a-credit-card-number-4111111111111111")
	ct := k.Seal("stmt", msg)
	if bytes.Contains(ct, msg[:8]) {
		t.Error("plaintext fragment visible in ciphertext")
	}
}

// Seal/Open sit on the client's per-message hot path: every query seals a
// statement and parameters and opens a result. The keyring expands the
// AES key schedule once at construction, so neither direction should
// rebuild it per message.
func BenchmarkSeal(b *testing.B) {
	k := testKeyring(b)
	msg := bytes.Repeat([]byte("SELECT qty FROM toys WHERE toy_id=? "), 4) // ~144B, a typical sealed statement
	b.ReportAllocs()
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		k.Seal("stmt", msg)
	}
}

func BenchmarkOpen(b *testing.B) {
	k := testKeyring(b)
	msg := bytes.Repeat([]byte("row-data "), 128) // ~1KB, a small sealed result
	ct := k.Seal("result", msg)
	b.ReportAllocs()
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		if _, err := k.Open("result", ct); err != nil {
			b.Fatal(err)
		}
	}
}

// SealAppend is Seal appended after whatever dst holds, and into room dst
// already has it writes in place: the trusted client seals each query's
// payload into pooled scratch (BenchmarkSystemQueryHit's budget holds it
// to no allocation).
func TestSealAppend(t *testing.T) {
	k := testKeyring(t)
	msg := []byte("SELECT qty FROM toys WHERE toy_id=?")
	got := k.SealAppend([]byte("prefix"), "stmt", msg)
	if want := append([]byte("prefix"), k.Seal("stmt", msg)...); !bytes.Equal(got, want) {
		t.Fatalf("SealAppend after a prefix: %x, want %x", got, want)
	}
	buf := make([]byte, 0, 256)
	if got := k.SealAppend(buf, "stmt", msg); &got[0] != &buf[:1][0] || !bytes.Equal(got, k.Seal("stmt", msg)) {
		t.Fatalf("SealAppend into room enough: %x, not in place", got)
	}
}
