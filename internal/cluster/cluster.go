// Package cluster turns N core.Server instances into one Drivolution
// control plane (paper §5.3: replicated Drivolution servers so that
// "the failure of a Drivolution server does not prevent bootloaders
// from operating").
//
// Three mechanisms compose:
//
//   - Sharded lease ownership. A static shard map hashes every grant
//     to one of cfg.Shards shards; each shard has a home member on a
//     fixed ring. In license mode the key is the driver id — a driver's
//     licenses must be counted by exactly one grantor or a partition
//     could hand out the same license twice — otherwise it is the
//     client id, which spreads a fleet of bootloaders evenly. A member
//     asked to grant a shard it does not own answers with a REDIRECT
//     frame naming the owner; it never proxies, so the data path stays
//     one hop.
//
//   - Replicated catalog. Every member embeds its own sqlmini database
//     carrying the full Drivolution schema and a non-listening dbms
//     replication hub; hubs are attached in a full mesh, so each
//     catalog or lease mutation re-executes synchronously on every
//     peer. Any member answers matchmaking (DISCOVER) from its local,
//     versioned catalog without touching the network, and a survivor
//     renews a dead member's lease under the same lease id because the
//     lease row is already in its own store.
//
//   - Membership and failover. Members heartbeat over wire with
//     piggybacked gossip. A peer silent for FailAfter is treated as
//     dead and its shards fall to the next live member on the ring. A
//     member that cannot see a majority within FenceAfter fences
//     itself: it stops claiming ownership (declining grants rather
//     than risking a split-brain double grant) until the partition
//     heals. The fencing deadline is deliberately earlier than the
//     takeover deadline — FenceAfter + 2·heartbeat < FailAfter — so a
//     cut-off member has stopped granting before any survivor starts.
package cluster

// The shard map is pure arithmetic shared by every member: no
// coordination is needed to agree on a grant's home, only on which
// members are alive.

// ShardMap hashes grants onto shards and shards onto home members.
type ShardMap struct {
	// Shards is the number of shards; more shards than members keeps
	// reassignment granular when membership changes.
	Shards int
	// ByDriver keys shards by driver id instead of client id. License
	// mode requires it: the per-driver license count is only safe when
	// a single member grants for that driver.
	ByDriver bool
}

// Shard maps one grant to its shard.
func (m ShardMap) Shard(driverID int64, clientID string) uint32 {
	var key uint64
	if m.ByDriver || clientID == "" {
		key = mix64(uint64(driverID))
	} else {
		key = mix64(fnv1a(clientID))
	}
	return uint32(key % uint64(m.Shards))
}

// Home returns the shard's home member on a ring of n members; the
// owner differs only when the home is dead.
func (m ShardMap) Home(shard uint32, n int) int { return int(shard) % n }

// fnv1a hashes a string (FNV-1a 64).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer: driver ids are small sequential
// integers, and without a bijective scrambler `id % shards` would pile
// consecutive drivers onto consecutive shards.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
