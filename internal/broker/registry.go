package broker

import (
	"crypto/ecdh"
	"errors"
	"fmt"
	"sync"
)

// Admission errors.
var (
	ErrUnknownClient = errors.New("broker: unknown client")
	ErrRevokedClient = errors.New("broker: client revoked")
)

// ClientStatus tracks a client's standing with the service provider
// (§3.1: producers "exclude clients that stop paying their fees or
// behave in a non-trustworthy manner").
type ClientStatus int

// Client states.
const (
	StatusActive ClientStatus = iota + 1
	StatusRevoked
)

// ClientRecord is the publisher's view of one client.
type ClientRecord struct {
	ID     string
	PubKey *ecdh.PublicKey
	Status ClientStatus
}

// ClientRegistry is the publisher-side admission database. Safe for
// concurrent use.
type ClientRegistry struct {
	mu      sync.RWMutex
	clients map[string]*ClientRecord
}

// NewClientRegistry returns an empty registry.
func NewClientRegistry() *ClientRegistry {
	return &ClientRegistry{clients: make(map[string]*ClientRecord)}
}

// Admit records (or re-activates) a client and its response key.
func (r *ClientRegistry) Admit(id string, pubKey *ecdh.PublicKey) error {
	if id == "" {
		return errors.New("broker: empty client ID")
	}
	if pubKey == nil {
		return fmt.Errorf("broker: client %s has no public key", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clients[id] = &ClientRecord{ID: id, PubKey: pubKey, Status: StatusActive}
	return nil
}

// Authorize returns the record of an active client.
func (r *ClientRegistry) Authorize(id string) (*ClientRecord, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.clients[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownClient, id)
	}
	if rec.Status != StatusActive {
		return nil, fmt.Errorf("%w: %s", ErrRevokedClient, id)
	}
	return rec, nil
}

// Revoke marks a client revoked. Idempotent; unknown clients error.
func (r *ClientRegistry) Revoke(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.clients[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownClient, id)
	}
	rec.Status = StatusRevoked
	return nil
}

// Len returns the number of known clients (any status).
func (r *ClientRegistry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.clients)
}
