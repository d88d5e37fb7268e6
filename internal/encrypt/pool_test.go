package encrypt

import (
	"bytes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// refSeal is the pre-pooling construction, kept verbatim as a reference:
// a fresh HMAC per call for the SIV and crypto/cipher's CTR stream for
// the body. The pooled fast path must remain byte-identical to it —
// sealed messages are deterministic cache-key material, so the hand-rolled
// CTR loop and the reused HMAC transcript must never change a single
// output byte.
func refSeal(k *Keyring, domain string, plaintext []byte) []byte {
	m := hmac.New(sha256.New, k.macKey)
	m.Write([]byte(domain))
	m.Write([]byte{0})
	m.Write(plaintext)
	iv := m.Sum(nil)[:ivSize]
	out := make([]byte, ivSize+len(plaintext))
	copy(out, iv)
	cipher.NewCTR(k.block, iv).XORKeyStream(out[ivSize:], plaintext)
	return out
}

func refToken(k *Keyring, domain string, plaintext []byte) string {
	m := hmac.New(sha256.New, k.macKey)
	m.Write([]byte(domain))
	m.Write([]byte{1})
	m.Write(plaintext)
	return string(m.Sum(nil))
}

// TestSealMatchesReference pins byte equivalence of the pooled seal (and
// token) against the reference construction across block-boundary sizes,
// including the multi-block lengths where the CTR counter increments and
// carries.
func TestSealMatchesReference(t *testing.T) {
	k := testKeyring(t)
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 15, 16, 17, 31, 32, 33, 255, 256, 257, 4096, 65536 + 3}
	for _, n := range sizes {
		msg := make([]byte, n)
		rng.Read(msg)
		for _, domain := range []string{"", "stmt", "result", "params\x00weird"} {
			got := k.Seal(domain, msg)
			want := refSeal(k, domain, msg)
			if !bytes.Equal(got, want) {
				t.Fatalf("Seal(%q, %d bytes) diverged from reference construction", domain, n)
			}
			if k.Token(domain, msg) != refToken(k, domain, msg) {
				t.Fatalf("Token(%q, %d bytes) diverged from reference construction", domain, n)
			}
		}
	}
	// Counter carry across byte boundaries: an IV ending in 0xFF bytes
	// must carry exactly like the stdlib stream. Force such IVs by trying
	// messages until one's SIV ends high, and always cross-check.
	for i := 0; i < 512; i++ {
		msg := []byte(fmt.Sprintf("carry-probe-%d", i))
		body := bytes.Repeat(msg, 8)
		if !bytes.Equal(k.Seal("carry", body), refSeal(k, "carry", body)) {
			t.Fatalf("carry probe %d diverged", i)
		}
	}
}

// TestOpenAppendOwnership pins the Append variant's ownership rules: the
// prefix already in dst is preserved and the returned slice extends it,
// also when the message fails to open.
func TestOpenAppendOwnership(t *testing.T) {
	k := testKeyring(t)
	msg := []byte("SELECT qty FROM toys WHERE toy_id=?")
	sealed := k.Seal("stmt", msg)

	prefix := []byte("hdr:")
	pt, err := k.OpenAppend(prefix[:len(prefix):len(prefix)], "stmt", sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt[len(prefix):], msg) {
		t.Error("OpenAppend round trip changed the message")
	}
	if !bytes.Equal(pt[:len(prefix)], prefix) {
		t.Error("OpenAppend clobbered the existing prefix")
	}

	// Tampered input: dst's committed prefix must survive untouched.
	bad := bytes.Clone(sealed)
	bad[0] ^= 1
	keep := bytes.Clone(prefix)
	if _, err := k.OpenAppend(prefix[:len(prefix):len(prefix)], "stmt", bad); err != ErrTampered {
		t.Fatalf("tampered OpenAppend: err = %v", err)
	}
	if !bytes.Equal(prefix, keep) {
		t.Error("failed OpenAppend mutated dst's committed bytes")
	}
}

// TestPoolOwnershipStress is the buffer-ownership regression for the
// scratch pool: many goroutines seal, open, and token concurrently, each
// snapshotting returned buffers and re-verifying them after thousands of
// later pooled reuses. Any scratch escape — a returned ciphertext or
// plaintext sharing an array with pooled state — shows up as a snapshot
// mismatch here, or as a data race under -race (CI runs both).
func TestPoolOwnershipStress(t *testing.T) {
	k := testKeyring(t)
	const workers = 8
	const iters = 400

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			type held struct {
				msg, ct, pt []byte
				tok         string
			}
			var retained []held
			for i := 0; i < iters; i++ {
				msg := make([]byte, rng.Intn(300))
				rng.Read(msg)
				ct := k.Seal("stress", msg)
				pt, err := k.Open("stress", ct)
				if err != nil {
					t.Errorf("worker %d: open: %v", w, err)
					return
				}
				if !bytes.Equal(pt, msg) {
					t.Errorf("worker %d: round trip changed message", w)
					return
				}
				if i%16 == 0 {
					retained = append(retained, held{
						msg: bytes.Clone(msg), ct: ct, pt: pt, tok: k.Token("stress", msg),
					})
				}
			}
			// Every buffer handed out earlier must still hold the bytes it
			// held when returned, despite ~iters of pooled reuse since.
			for _, h := range retained {
				if !bytes.Equal(h.ct, k.Seal("stress", h.msg)) {
					t.Errorf("worker %d: retained ciphertext was overwritten by pooled reuse", w)
					return
				}
				if !bytes.Equal(h.pt, h.msg) {
					t.Errorf("worker %d: retained plaintext was overwritten by pooled reuse", w)
					return
				}
				if h.tok != k.Token("stress", h.msg) {
					t.Errorf("worker %d: token not stable", w)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzSealOpen fuzzes the full surface: round trip, determinism, and
// reference equivalence for arbitrary domains and messages.
func FuzzSealOpen(f *testing.F) {
	f.Add("stmt", []byte("SELECT qty FROM toys WHERE toy_id=?"))
	f.Add("", []byte{})
	f.Add("params", []byte{0, 0xFF, 0, 0xFF})
	f.Add("result", bytes.Repeat([]byte{0xAA}, 100))
	k := testKeyring(f)
	f.Fuzz(func(t *testing.T, domain string, msg []byte) {
		ct := k.Seal(domain, msg)
		if !bytes.Equal(ct, refSeal(k, domain, msg)) {
			t.Fatal("seal diverged from reference construction")
		}
		if !bytes.Equal(ct, k.Seal(domain, msg)) {
			t.Fatal("seal not deterministic")
		}
		pt, err := k.Open(domain, ct)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatal("round trip changed message")
		}
	})
}
