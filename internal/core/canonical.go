package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Canonicalize returns the fully-resolved form of the configuration: the
// topology is built, buffer parameters are raised to fit the workload
// exactly as New would raise them, and the result is validated. Two
// configurations that describe the same simulated system — for example one
// that spells out a default buffer size and one that leaves it to be raised
// by normalization — canonicalize to identical values, which makes the
// canonical form a sound cache key: New(c) and New(canonical(c)) build the
// same system, and any semantic difference between two configs survives
// into their canonical forms.
func (c Config) Canonicalize() (Config, error) {
	net, err := c.buildTopology()
	if err != nil {
		return Config{}, err
	}
	if err := c.normalize(net); err != nil {
		return Config{}, err
	}
	return c, nil
}

// ContentAddress returns the content address of a configuration: the hex
// SHA-256 of the canonical encoding of its fully-resolved form (see
// Canonicalize). Two configs that differ only in defaulted fields share an
// address; any semantic difference changes it. The canonical form is
// returned alongside so callers build the simulator from exactly the
// addressed config. It is the one definition behind the daemon's cache and
// journal keys, the cluster's shard keys, and the sweep runner's sharing of
// identical points.
//
// The encoding is json.Marshal of the canonical Config: struct fields
// marshal in declaration order, so the byte stream — and the address — is
// deterministic for a given binary, and the Seed is part of the Config, so
// it is part of the address.
func ContentAddress(cfg Config) (string, Config, error) {
	canon, err := cfg.Canonicalize()
	if err != nil {
		return "", Config{}, err
	}
	b, err := json.Marshal(canon)
	if err != nil {
		return "", Config{}, fmt.Errorf("core: encoding config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), canon, nil
}
