package httpapi

import (
	"context"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// TestByzantineNodeCannotForgeResults: the paper's security model says the
// DSSP must be prevented from tampering with master data. A malicious node
// that fabricates or corrupts an encrypted result cannot get it past the
// client: the SIV authentication fails on decryption. Nor can it hurt the
// client with the envelope itself — a truncated body, another op's answer,
// or trailing bytes are errors from the strict decoder, never panics.
func TestByzantineNodeCannotForgeResults(t *testing.T) {
	app := apps.Toystore()
	exps := map[string]template.Exposure{"Q2": template.ExpStmt} // results encrypted
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), exps)

	forged := (&queryAnswer{result: wire.SealedResult{Cipher: []byte("forged-ciphertext-bytes")}, hit: true}).appendWire(nil)
	bodies := map[string][]byte{
		"well-formed envelope, attacker-chosen ciphertext": forged,
		"truncated mid-ciphertext":                         forged[:len(forged)/2],
		"truncated to the result tag":                      forged[:1],
		"empty":                                            nil,
		"trailing byte":                                    append(append([]byte(nil), forged...), 0),
		"another op's answer: an update's":                 (&updateAnswer{affected: 1}).appendWire(nil),
		"another op's answer: the home's":                  (&execQueryMsg{Result: wire.SealedResult{Cipher: []byte("x")}}).appendWire(nil),
		"length past the end":                              {1, 0xff, 0xff, 0x03},
	}
	for name, body := range bodies {
		evil := startFrameServer(t, &frameOps{OpQuery: func(_ context.Context, _, resp *frame) {
			resp.body = append(resp.body, body...)
		}})
		client := NewClient(codec, evil.URL, nil)
		if _, err := client.Query(context.Background(), app.Query("Q2"), 5); err == nil {
			t.Errorf("%s: accepted by the client", name)
		}
	}
}

// TestByzantineNodeCannotSubstituteResults: replaying a legitimately
// sealed result for a *different* query domain is also rejected — the
// opaque payload and the result are bound to the keyring's domains.
func TestByzantineNodeCannotSubstituteOpaque(t *testing.T) {
	app := apps.Toystore()
	kr := encrypt.MustNewKeyring(make([]byte, encrypt.KeySize))
	codec := wire.NewCodec(app, kr, nil)

	// Seal a statement payload, then try to open it as a result.
	sq, err := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.OpenResult(wire.SealedResult{Cipher: sq.Opaque}); err == nil {
		t.Fatal("statement ciphertext accepted as a result")
	}
}

// TestPlaintextResultIntegrityCaveat documents the deliberate design
// point: at view exposure the result is plaintext by the administrator's
// choice — the DSSP can read it, and a byzantine node could alter it. The
// defense at view exposure is contractual, not cryptographic; anything the
// administrator marks below view is tamper-evident.
func TestPlaintextResultIntegrityCaveat(t *testing.T) {
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	forged := &engine.Result{Columns: []string{"qty"}, Rows: [][]sqlparse.Value{{sqlparse.IntVal(9999)}}}
	got, err := codec.OpenResult(wire.SealedResult{Result: forged})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].Int != 9999 {
		t.Fatal("plaintext pass-through broken")
	}
}
