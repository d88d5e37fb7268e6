// Package encrypt provides the deterministic authenticated encryption the
// DSSP architecture requires. Per §2.3 (footnote 3) of the paper, caching
// mechanics need *deterministic* encryption: the DSSP looks cached results
// up by (possibly encrypted) query statements or parameters, so equal
// plaintexts must produce equal ciphertexts under the same key.
//
// The construction is SIV-style, built from the Go standard library only:
// the IV is an HMAC-SHA-256 PRF of the plaintext (truncated to the AES
// block size) and the body is AES-CTR under an independent key. Decryption
// recomputes the PRF and rejects tampered ciphertexts. Deterministic
// encryption necessarily reveals plaintext equality — exactly the property
// the DSSP cache exploits — and nothing else.
//
// Seal and Open sit on the client's and home server's per-message hot
// paths, so the package is built to stay off the allocator: the AES key
// schedule is expanded once per keyring, and all per-call working state
// (the HMAC transcript, the PRF output, the CTR counter and keystream
// blocks) lives in a sync.Pool of scratch structures. The only allocation
// a Seal or Open makes is the output buffer itself — and the Append
// variants let callers supply even that.
//
// Buffer ownership rules:
//
//   - Seal and Open return freshly allocated buffers; the caller owns them
//     outright and no later call mutates them.
//   - SealAppend and OpenAppend append to the caller's buffer and return
//     the extended slice, which aliases dst's array whenever capacity
//     sufficed. The caller owns dst before and after; the keyring retains
//     no reference to it.
//   - Token returns an immutable string.
//
// Pooled scratch never escapes a call, enforced by the ownership stress
// test: bytes returned to a caller are never overwritten by later calls.
package encrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"hash"
	"slices"
	"sync"
)

// KeySize is the size of a Keyring's master key in bytes.
const KeySize = 32

// ivSize is the SIV length: one AES block.
const ivSize = aes.BlockSize

// ErrTampered is returned when a ciphertext fails authentication.
var ErrTampered = errors.New("encrypt: ciphertext authentication failed")

// Keyring holds an application's encryption keys. The application's home
// organization owns the keyring; the DSSP never sees it. A Keyring must
// not be copied after construction (it carries a scratch pool).
type Keyring struct {
	macKey []byte       // PRF key for the synthetic IV
	block  cipher.Block // AES block for the body, expanded once

	// scratch pools the per-call working state so concurrent seals and
	// opens never share an HMAC transcript and never hit the allocator.
	scratch sync.Pool // *sealScratch
}

// sealScratch is one call's working state: the keyed HMAC (Reset per
// use), the domain-label prefix, the PRF output, and the CTR counter and
// keystream blocks. It is pooled; nothing in it ever escapes a call.
type sealScratch struct {
	mac     hash.Hash
	lbl     []byte
	sum     [sha256.Size]byte
	ctr, ks [aes.BlockSize]byte
}

// NewKeyring derives a keyring from a master key. The two internal keys
// are derived with domain-separated HMACs so a single secret suffices.
func NewKeyring(master []byte) (*Keyring, error) {
	if len(master) != KeySize {
		return nil, fmt.Errorf("encrypt: master key must be %d bytes, got %d", KeySize, len(master))
	}
	derive := func(label string) []byte {
		m := hmac.New(sha256.New, master)
		m.Write([]byte(label))
		return m.Sum(nil)
	}
	// The AES key schedule is expanded here, once: every seal and open on
	// the client's hot path reuses the block instead of re-deriving it.
	block, err := aes.NewCipher(derive("dssp-siv-enc")[:32])
	if err != nil {
		return nil, err
	}
	k := &Keyring{
		macKey: derive("dssp-siv-mac"),
		block:  block,
	}
	k.scratch.New = func() any {
		return &sealScratch{mac: hmac.New(sha256.New, k.macKey)}
	}
	return k, nil
}

// MustNewKeyring is NewKeyring for statically known keys; it panics on
// error.
func MustNewKeyring(master []byte) *Keyring {
	k, err := NewKeyring(master)
	if err != nil {
		panic(err)
	}
	return k
}

// prf computes the keyed PRF of domain||sep||plaintext into s.sum.
// sep separates the SIV space (0) from the token space (1).
func (k *Keyring) prf(s *sealScratch, domain string, sep byte, plaintext []byte) {
	s.lbl = append(s.lbl[:0], domain...)
	s.lbl = append(s.lbl, sep)
	s.mac.Reset()
	s.mac.Write(s.lbl)
	s.mac.Write(plaintext)
	s.mac.Sum(s.sum[:0])
}

// ctrStreamThreshold is the body size above which ctrXOR delegates to
// crypto/cipher's CTR stream: its multi-block assembly beats the scratch
// loop on long bodies by more than its allocation costs, while short
// bodies — sealed statements and parameters, the per-query hot path —
// stay allocation-free. The outputs are byte-identical either way (the
// equivalence test covers sizes on both sides of the threshold).
const ctrStreamThreshold = 512

// ctrXOR applies the AES-CTR keystream for iv to src, writing into dst
// (dst may alias src). The counter starts at iv and increments big-endian
// across the whole block — byte-identical to crypto/cipher.NewCTR, pinned
// by the equivalence test, without its per-call stream allocation.
func (k *Keyring) ctrXOR(s *sealScratch, dst, src, iv []byte) {
	if len(src) >= ctrStreamThreshold {
		cipher.NewCTR(k.block, iv).XORKeyStream(dst, src)
		return
	}
	copy(s.ctr[:], iv)
	for len(src) > 0 {
		k.block.Encrypt(s.ks[:], s.ctr[:])
		n := len(src)
		if n > aes.BlockSize {
			n = aes.BlockSize
		}
		subtle.XORBytes(dst[:n], src[:n], s.ks[:n])
		dst, src = dst[n:], src[n:]
		for i := aes.BlockSize - 1; i >= 0; i-- {
			s.ctr[i]++
			if s.ctr[i] != 0 {
				break
			}
		}
	}
}

// Seal deterministically encrypts plaintext under the keyring with the
// given domain label (distinct labels produce unrelated ciphertexts for
// equal plaintexts, so e.g. statements and results never collide). The
// returned buffer is freshly allocated and owned by the caller.
func (k *Keyring) Seal(domain string, plaintext []byte) []byte {
	out := make([]byte, ivSize+len(plaintext))
	k.seal(out, domain, plaintext)
	return out
}

// SealAppend appends the sealed message for plaintext to dst and returns
// the extended slice. When dst has capacity for SealedSize(len(plaintext))
// more bytes no allocation occurs; the result then aliases dst's array.
func (k *Keyring) SealAppend(dst []byte, domain string, plaintext []byte) []byte {
	off := len(dst)
	n := ivSize + len(plaintext)
	dst = slices.Grow(dst, n)[:off+n]
	k.seal(dst[off:], domain, plaintext)
	return dst
}

// SealedSize returns the sealed length of an n-byte plaintext.
func SealedSize(n int) int { return ivSize + n }

// seal fills out (of length ivSize+len(plaintext)) with the sealed
// message.
func (k *Keyring) seal(out []byte, domain string, plaintext []byte) {
	s := k.scratch.Get().(*sealScratch)
	k.prf(s, domain, 0, plaintext)
	copy(out, s.sum[:ivSize])
	k.ctrXOR(s, out[ivSize:], plaintext, out[:ivSize])
	k.scratch.Put(s)
}

// Open decrypts and authenticates a ciphertext produced by Seal with the
// same domain label. The returned buffer is freshly allocated and owned
// by the caller.
func (k *Keyring) Open(domain string, ciphertext []byte) ([]byte, error) {
	return k.OpenAppend(nil, domain, ciphertext)
}

// OpenAppend appends the decrypted plaintext to dst and returns the
// extended slice, which aliases dst's array whenever capacity sufficed.
// On authentication failure it returns nil and ErrTampered; dst is
// unchanged up to its original length either way.
func (k *Keyring) OpenAppend(dst []byte, domain string, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < ivSize {
		return nil, ErrTampered
	}
	off := len(dst)
	n := len(ciphertext) - ivSize
	dst = slices.Grow(dst, n)[:off+n]
	pt := dst[off:]
	iv := ciphertext[:ivSize]
	s := k.scratch.Get().(*sealScratch)
	k.ctrXOR(s, pt, ciphertext[ivSize:], iv)
	k.prf(s, domain, 0, pt)
	ok := hmac.Equal(iv, s.sum[:ivSize])
	k.scratch.Put(s)
	if !ok {
		return nil, ErrTampered
	}
	return dst, nil
}

// Token returns a deterministic opaque token for the plaintext: the PRF
// output alone, with no decryption capability. The DSSP uses tokens as
// cache lookup keys for encrypted statements and parameters.
func (k *Keyring) Token(domain string, plaintext []byte) string {
	var b [sha256.Size]byte
	return string(k.TokenAppend(b[:0], domain, plaintext))
}

// TokenAppend appends Token's bytes to dst, so a caller can make a key of
// a prefix and the token in one string. The token is computed before
// anything is appended: plaintext may lie in dst's spare capacity.
func (k *Keyring) TokenAppend(dst []byte, domain string, plaintext []byte) []byte {
	s := k.scratch.Get().(*sealScratch)
	k.prf(s, domain, 1, plaintext)
	dst = append(dst, s.sum[:]...)
	k.scratch.Put(s)
	return dst
}
