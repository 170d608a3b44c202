package scrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

// The client→publisher leg ({s}PK in the paper) uses hybrid encryption:
// RSA-OAEP wraps a fresh AES key which encrypts the body with CTR, so
// subscriptions of any size fit.

// EncryptPK encrypts plaintext for the holder of the private half of pk.
// Layout: len(wrapped)(2) || wrapped || nonce(16) || ciphertext.
func EncryptPK(pk *rsa.PublicKey, plaintext []byte) ([]byte, error) {
	var sessionKey [SymmetricKeySize]byte
	if _, err := io.ReadFull(rand.Reader, sessionKey[:]); err != nil {
		return nil, fmt.Errorf("scrypto: reading session key: %w", err)
	}
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, pk, sessionKey[:], nil)
	if err != nil {
		return nil, fmt.Errorf("scrypto: wrapping session key: %w", err)
	}
	block, err := aes.NewCipher(sessionKey[:])
	if err != nil {
		return nil, fmt.Errorf("scrypto: creating cipher: %w", err)
	}
	out := make([]byte, 2+len(wrapped)+nonceSize+len(plaintext))
	binary.BigEndian.PutUint16(out, uint16(len(wrapped)))
	copy(out[2:], wrapped)
	nonce := out[2+len(wrapped) : 2+len(wrapped)+nonceSize]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("scrypto: reading nonce: %w", err)
	}
	cipher.NewCTR(block, nonce).XORKeyStream(out[2+len(wrapped)+nonceSize:], plaintext)
	return out, nil
}

// DecryptPK reverses EncryptPK using the key pair's private half.
func DecryptPK(kp *KeyPair, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < 2 {
		return nil, ErrMalformed
	}
	wrappedLen := int(binary.BigEndian.Uint16(ciphertext))
	if len(ciphertext) < 2+wrappedLen+nonceSize {
		return nil, ErrMalformed
	}
	sessionKey, err := rsa.DecryptOAEP(sha256.New(), nil, kp.Private, ciphertext[2:2+wrappedLen], nil)
	if err != nil {
		return nil, ErrAuthentication
	}
	block, err := aes.NewCipher(sessionKey)
	if err != nil {
		return nil, fmt.Errorf("scrypto: creating cipher: %w", err)
	}
	nonce := ciphertext[2+wrappedLen : 2+wrappedLen+nonceSize]
	body := ciphertext[2+wrappedLen+nonceSize:]
	plaintext := make([]byte, len(body))
	cipher.NewCTR(block, nonce).XORKeyStream(plaintext, body)
	return plaintext, nil
}
