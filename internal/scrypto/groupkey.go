package scrypto

import (
	"crypto/rand"
	"fmt"
	"io"
	"sort"
	"sync"
)

// GroupKeyManager implements the publisher-side payload key management
// sketched in §3.4 of the paper: payloads are encrypted under a symmetric
// group key shared between the publisher and its active consumers, and
// the key is rotated ("epochs") whenever the membership changes so that
// revoked clients cannot read newly published messages.
//
// The zero value is not usable; construct with NewGroupKeyManager.
type GroupKeyManager struct {
	mu      sync.RWMutex
	epoch   uint64
	key     *SymmetricKey
	sealer  *Sealer // payload sealer for key, rebuilt on rotation
	members map[string]bool
	src     io.Reader
}

// NewGroupKeyManager creates a manager at epoch 1 with no members.
// src defaults to crypto/rand when nil.
func NewGroupKeyManager(src io.Reader) (*GroupKeyManager, error) {
	if src == nil {
		src = rand.Reader
	}
	key, err := NewSymmetricKey(src)
	if err != nil {
		return nil, fmt.Errorf("scrypto: initial group key: %w", err)
	}
	sealer, err := NewSealer(key)
	if err != nil {
		return nil, err
	}
	return &GroupKeyManager{
		epoch:   1,
		key:     key,
		sealer:  sealer,
		members: make(map[string]bool),
		src:     src,
	}, nil
}

// Epoch returns the current key epoch.
func (g *GroupKeyManager) Epoch() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.epoch
}

// Sealer returns the payload sealer for the current group key and its
// epoch: one Sealer per epoch, so publishing pays the key setup once
// per rotation, not once per payload.
func (g *GroupKeyManager) Sealer() (*Sealer, uint64) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.sealer, g.epoch
}

// Members returns the sorted list of current member identities.
func (g *GroupKeyManager) Members() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.members))
	for m := range g.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Join adds a client to the group. Joining does not rotate the key: the
// paper only requires that *departed* clients lose access to future
// messages. It returns the key the new member should use.
func (g *GroupKeyManager) Join(clientID string) (*SymmetricKey, uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members[clientID] = true
	return g.key, g.epoch
}

// Revoke removes a client and rotates the group key so the client cannot
// decrypt payloads published after the revocation. It returns the new
// epoch. Revoking an unknown client is a no-op and keeps the epoch.
func (g *GroupKeyManager) Revoke(clientID string) (uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.members[clientID] {
		return g.epoch, nil
	}
	delete(g.members, clientID)
	key, err := NewSymmetricKey(g.src)
	if err != nil {
		return g.epoch, fmt.Errorf("scrypto: rotating group key: %w", err)
	}
	sealer, err := NewSealer(key)
	if err != nil {
		return g.epoch, err
	}
	g.key, g.sealer = key, sealer
	g.epoch++
	return g.epoch, nil
}

// IsMember reports whether clientID currently belongs to the group.
func (g *GroupKeyManager) IsMember(clientID string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.members[clientID]
}
