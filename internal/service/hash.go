package service

import "mdworm/internal/core"

// Hash returns the content address of a configuration and its canonical
// form; see core.ContentAddress, the one definition the daemon's cache and
// journal, the cluster's shards and the sweep runner share.
func Hash(cfg core.Config) (string, core.Config, error) { return core.ContentAddress(cfg) }
