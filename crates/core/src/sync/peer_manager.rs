//! Topology-level peer management with eclipse resistance.
//!
//! PR 4 and PR 7 hardened the *per-connection* layer — scoring, bans, and
//! byte-level wire defenses. This module hardens the *topology* layer: an
//! adversary who occupies every peer slot of a node wins without ever
//! sending a malformed byte, because the per-connection machinery only
//! judges the peers it was given. The [`PeerManager`] decides **which**
//! peers those are, borrowing the defenses Bitcoin Core's addrman grew in
//! response to the Heilman et al. eclipse attacks:
//!
//! * **`tried`/`new` tables bucketed by netgroup** — where an address may
//!   live in the tables is a seeded hash of its netgroup (and, for `new`,
//!   the netgroup of the peer that gossiped it), so an attacker flooding
//!   addresses from a handful of netgroups can poison only a bounded slice
//!   of the table no matter how many addresses it sends;
//! * **outbound netgroup diversity** — at most one outbound slot per
//!   netgroup, so controlling G netgroups caps the attacker at G outbound
//!   slots;
//! * **anchor persistence** — a restarting node reconnects to outbound
//!   peers that previously served it valid blocks, so a reboot does not
//!   reset the attacker's problem to "fill empty slots";
//! * **feeler probes** — periodic short-lived test connections move
//!   gossiped addresses into `tried` only after they actually answer,
//!   keeping the `tried` table's quality under flood;
//! * **inbound eviction protection** — when the inbound capacity is hit,
//!   long-lived and recently-useful peers are protected and the eviction
//!   victim is drawn from the most-populated netgroup, so connection churn
//!   from few netgroups evicts the attacker's own connections first.
//!
//! The defenses stand or fall together behind one [`DefensePolicy`] so the
//! netsim eclipse campaign can measure the attack's success probability
//! with them off and on (`crates/netsim/src/eclipse.rs`).
//!
//! The manager is fully deterministic: every hash and every selection draw
//! comes from splitmix64 over the config seed, and time is a logical
//! `tick` supplied by the caller — no wall clock, no global RNG — so an
//! eclipse campaign is a reproducible function of its seed.

use super::fault::splitmix64;
use ebv_telemetry::{counter, trace_event};
use std::collections::HashMap;

/// A peer's network address. The simulator synthesizes these; real TCP
/// peers use their socket address octets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerAddr {
    pub ip: [u8; 4],
    pub port: u16,
}

impl PeerAddr {
    /// Synthesize an address inside netgroup `group` with host suffix
    /// `host` — the netsim scenarios' address factory.
    pub fn synthetic(group: u16, host: u16) -> PeerAddr {
        PeerAddr {
            ip: [
                (group >> 8) as u8,
                (group & 0xff) as u8,
                (host >> 8) as u8,
                (host & 0xff) as u8,
            ],
            port: 8333,
        }
    }

    /// The address's netgroup — the /16 prefix, the granularity at which
    /// the bucketing and diversity defenses operate.
    pub fn netgroup(&self) -> u16 {
        u16::from(self.ip[0]) << 8 | u16::from(self.ip[1])
    }

    /// Stable 64-bit key for hashing.
    fn key(&self) -> u64 {
        u64::from(u32::from_be_bytes(self.ip)) << 16 | u64::from(self.port)
    }

    /// Serialized form for anchor persistence (6 bytes).
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ip);
        out.extend_from_slice(&self.port.to_le_bytes());
    }

    fn decode_from(bytes: &[u8]) -> Option<(PeerAddr, &[u8])> {
        if bytes.len() < 6 {
            return None;
        }
        Some((
            PeerAddr {
                ip: [bytes[0], bytes[1], bytes[2], bytes[3]],
                port: u16::from_le_bytes([bytes[4], bytes[5]]),
            },
            &bytes[6..],
        ))
    }
}

/// Whether the eclipse defenses are on: netgroup bucketing of the tables,
/// one outbound slot per netgroup, inbound eviction protection and anchor
/// reconnects. The netsim campaign measures the attack with
/// [`DefensePolicy::hardened`] against [`DefensePolicy::naive`].
#[derive(Clone, Copy, Debug)]
pub struct DefensePolicy {
    hardened: bool,
}

impl DefensePolicy {
    /// All defenses on — the production posture.
    pub fn hardened() -> DefensePolicy {
        DefensePolicy { hardened: true }
    }

    /// All defenses off — the strawman a successful eclipse needs.
    pub fn naive() -> DefensePolicy {
        DefensePolicy { hardened: false }
    }
}

/// Tuning knobs. Table geometry is scaled down from Bitcoin Core's
/// (1024/256 buckets × 64 slots) to keep netsim campaigns at hundreds of
/// peers meaningful — the ratios, not the absolute sizes, carry the
/// defense.
#[derive(Clone, Copy, Debug)]
pub struct PeerManagerConfig {
    /// Buckets in the `new` table (gossiped, unverified addresses).
    pub new_buckets: usize,
    /// Buckets in the `tried` table (addresses that answered us).
    pub tried_buckets: usize,
    /// Slots per bucket.
    pub bucket_size: usize,
    /// Outbound connection target.
    pub outbound_slots: usize,
    /// Inbound connection capacity.
    pub inbound_slots: usize,
    /// Consecutive failures after which a `new` entry is dropped.
    pub max_failures: u32,
    /// Ticks between feeler probes.
    pub feeler_interval: u64,
    /// How many anchors to persist.
    pub anchor_count: usize,
    /// Inbound peers protected from eviction by longest uptime.
    pub protect_longest: usize,
    /// Inbound peers protected from eviction by most recent usefulness.
    pub protect_recent: usize,
    /// Seed for table hashing and selection draws.
    pub seed: u64,
    /// Which defenses are active.
    pub defenses: DefensePolicy,
}

impl Default for PeerManagerConfig {
    fn default() -> Self {
        PeerManagerConfig {
            new_buckets: 64,
            tried_buckets: 16,
            bucket_size: 8,
            outbound_slots: 8,
            inbound_slots: 16,
            max_failures: 4,
            feeler_interval: 4,
            anchor_count: 2,
            protect_longest: 4,
            protect_recent: 4,
            seed: 0xadd2,
            defenses: DefensePolicy::hardened(),
        }
    }
}

/// What the manager knows about one address.
#[derive(Clone, Copy, Debug)]
struct AddrInfo {
    addr: PeerAddr,
    /// Consecutive failed connection attempts.
    failures: u32,
    /// Tick of the last successful handshake, if any.
    last_success: Option<u64>,
    /// Lives in the `tried` table (else `new`).
    tried: bool,
}

/// One live connection slot.
#[derive(Clone, Copy, Debug)]
pub struct ConnectedPeer {
    pub addr: PeerAddr,
    /// Tick the connection was established.
    pub connected_at: u64,
    /// Tick this peer last did something useful (served a valid block).
    pub last_useful: u64,
}

/// Outcome of an inbound connection attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InboundDecision {
    /// A free slot was available.
    Accepted,
    /// Capacity reached and every candidate was protected; the newcomer
    /// is refused.
    Rejected,
    /// The newcomer is admitted; the returned peer was evicted.
    AcceptedEvicting(PeerAddr),
}

/// The address manager plus connection-slot book-keeping. See the module
/// docs for the defense inventory.
pub struct PeerManager {
    cfg: PeerManagerConfig,
    /// All known addresses.
    addrs: Vec<AddrInfo>,
    index: HashMap<PeerAddr, usize>,
    /// `new` table: bucket-major slot array of indices into `addrs`.
    new_table: Vec<Option<usize>>,
    /// `tried` table, same layout.
    tried_table: Vec<Option<usize>>,
    /// Live outbound connections.
    outbound: Vec<ConnectedPeer>,
    /// Live inbound connections.
    inbound: Vec<ConnectedPeer>,
    /// Persisted anchors loaded at boot, consumed by selection first.
    boot_anchors: Vec<PeerAddr>,
    /// Deterministic selection stream state.
    draws: u64,
    /// Tick of the last feeler probe.
    last_feeler: Option<u64>,
}

impl PeerManager {
    pub fn new(cfg: PeerManagerConfig) -> PeerManager {
        PeerManager {
            cfg,
            addrs: Vec::new(),
            index: HashMap::new(),
            new_table: vec![None; cfg.new_buckets * cfg.bucket_size],
            tried_table: vec![None; cfg.tried_buckets * cfg.bucket_size],
            outbound: Vec::new(),
            inbound: Vec::new(),
            boot_anchors: Vec::new(),
            draws: 0,
            last_feeler: None,
        }
    }

    /// Boot with a persisted anchor list (see [`PeerManager::anchors`] /
    /// [`PeerManager::encode_anchors`]). Anchors are also inserted as
    /// known-good `tried` addresses. No-op when the anchor defense is off.
    pub fn with_anchors(mut self, anchors: &[PeerAddr], tick: u64) -> PeerManager {
        if !self.cfg.defenses.hardened {
            return self;
        }
        for &addr in anchors.iter().take(self.cfg.anchor_count) {
            self.insert(addr);
            self.mark_good(addr, tick);
            self.boot_anchors.push(addr);
        }
        self
    }

    pub fn config(&self) -> &PeerManagerConfig {
        &self.cfg
    }

    fn next_draw(&mut self) -> u64 {
        self.draws = self.draws.wrapping_add(1);
        splitmix64(self.cfg.seed ^ 0x5e1e_c700 ^ self.draws)
    }

    /// Bucket for `group` in the `new` table, keyed by the gossip source's
    /// netgroup as well — a single source can only reach a bounded set of
    /// buckets per target group.
    fn new_bucket(&self, addr: PeerAddr, source_group: u16) -> usize {
        let h = if self.cfg.defenses.hardened {
            splitmix64(
                self.cfg
                    .seed
                    .wrapping_mul(0x9e37)
                    .wrapping_add(u64::from(addr.netgroup()) << 16 | u64::from(source_group)),
            )
        } else {
            splitmix64(self.cfg.seed ^ addr.key())
        };
        (h % self.cfg.new_buckets as u64) as usize
    }

    fn tried_bucket(&self, addr: PeerAddr) -> usize {
        let h = if self.cfg.defenses.hardened {
            splitmix64(self.cfg.seed ^ 0x7a1e_d000 ^ u64::from(addr.netgroup()))
        } else {
            splitmix64(self.cfg.seed ^ 0x7a1e_d000 ^ addr.key())
        };
        (h % self.cfg.tried_buckets as u64) as usize
    }

    /// Slot within a bucket is always keyed by the full address, so
    /// distinct addresses spread over a bucket's slots.
    fn slot_in_bucket(&self, addr: PeerAddr, salt: u64) -> usize {
        (splitmix64(self.cfg.seed ^ salt ^ addr.key()) % self.cfg.bucket_size as u64) as usize
    }

    fn insert(&mut self, addr: PeerAddr) -> usize {
        if let Some(&i) = self.index.get(&addr) {
            return i;
        }
        let i = self.addrs.len();
        self.addrs.push(AddrInfo {
            addr,
            failures: 0,
            last_success: None,
            tried: false,
        });
        self.index.insert(addr, i);
        i
    }

    /// Ingest a gossiped address from a peer in `source_group`. Returns
    /// whether the address now occupies a `new`-table slot (an address
    /// evicted by bucket collision policy does not).
    pub fn add_addr(&mut self, addr: PeerAddr, source_group: u16) -> bool {
        counter!("addrman.gossip_received").inc();
        if self.index.get(&addr).map(|&i| self.addrs[i].tried) == Some(true) {
            return true; // already vetted; gossip cannot demote it
        }
        let bucket = self.new_bucket(addr, source_group);
        let slot = self.slot_in_bucket(addr, 0x11ed);
        let pos = bucket * self.cfg.bucket_size + slot;
        match self.new_table[pos] {
            Some(i) if self.addrs[i].addr == addr => true,
            Some(i) => {
                // Collision: the slot is taken. Replace only a stale
                // incumbent (repeated failures, never answered); otherwise
                // the newcomer is dropped — flooding cannot displace
                // healthy entries.
                let incumbent = &self.addrs[i];
                let stale = incumbent.last_success.is_none() && incumbent.failures >= 1;
                counter!("addrman.new.collisions").inc();
                if stale {
                    let j = self.insert(addr);
                    self.new_table[pos] = Some(j);
                    counter!("addrman.new.replaced").inc();
                    true
                } else {
                    false
                }
            }
            None => {
                let j = self.insert(addr);
                self.new_table[pos] = Some(j);
                counter!("addrman.new.inserted").inc();
                self.refresh_table_gauges();
                true
            }
        }
    }

    /// Record a failed connection attempt (dial failure or a peer that
    /// got itself banned). After `max_failures` consecutive failures the
    /// entry is flushed from its table — `new` entries are forgotten,
    /// `tried` entries are demoted out of the table so an address that
    /// turned hostile cannot be selected forever on past merit.
    pub fn mark_failed(&mut self, addr: PeerAddr) {
        let Some(&i) = self.index.get(&addr) else {
            return;
        };
        self.addrs[i].failures = self.addrs[i].failures.saturating_add(1);
        counter!("addrman.attempt_failures").inc();
        if self.addrs[i].failures < self.cfg.max_failures {
            return;
        }
        if self.addrs[i].tried {
            for slot in self.tried_table.iter_mut() {
                if *slot == Some(i) {
                    *slot = None;
                }
            }
            self.addrs[i].tried = false;
            counter!("addrman.tried.demoted").inc();
        } else {
            for slot in self.new_table.iter_mut() {
                if *slot == Some(i) {
                    *slot = None;
                }
            }
            counter!("addrman.new.expired").inc();
        }
        self.refresh_table_gauges();
    }

    /// Record a successful handshake: promote the address into `tried`.
    /// A bucket collision keeps the healthier incumbent (test-before-evict
    /// in spirit: the newcomer stays in `new` and may try again later).
    pub fn mark_good(&mut self, addr: PeerAddr, tick: u64) {
        let i = self.insert(addr);
        self.addrs[i].failures = 0;
        self.addrs[i].last_success = Some(tick);
        if self.addrs[i].tried {
            return;
        }
        let bucket = self.tried_bucket(addr);
        let slot = self.slot_in_bucket(addr, 0x7a1e);
        let pos = bucket * self.cfg.bucket_size + slot;
        match self.tried_table[pos] {
            Some(j) if j != i => {
                let incumbent = &self.addrs[j];
                // Keep an incumbent that has answered at least as recently
                // and is not failing; otherwise displace it back to `new`.
                let keep = incumbent.failures == 0 && incumbent.last_success >= Some(tick);
                counter!("addrman.tried.collisions").inc();
                if keep {
                    return;
                }
                self.addrs[j].tried = false;
                self.tried_table[pos] = Some(i);
            }
            _ => self.tried_table[pos] = Some(i),
        }
        self.addrs[i].tried = true;
        // Drop its `new` slots — it lives in `tried` now.
        for slot in self.new_table.iter_mut() {
            if *slot == Some(i) {
                *slot = None;
            }
        }
        counter!("addrman.tried.promoted").inc();
        self.refresh_table_gauges();
    }

    fn refresh_table_gauges(&self) {
        if ebv_telemetry::enabled() {
            let new_count = self.new_table.iter().flatten().count() as u64;
            let tried_count = self.tried_table.iter().flatten().count() as u64;
            ebv_telemetry::registry::gauge("addrman.new.count").set(new_count);
            ebv_telemetry::registry::gauge("addrman.tried.count").set(tried_count);
        }
    }

    fn refresh_slot_gauges(&self) {
        if ebv_telemetry::enabled() {
            ebv_telemetry::registry::gauge("net.peer.slot.outbound")
                .set(self.outbound.len() as u64);
            ebv_telemetry::registry::gauge("net.peer.slot.inbound").set(self.inbound.len() as u64);
        }
    }

    fn is_connected(&self, addr: PeerAddr) -> bool {
        self.outbound.iter().any(|c| c.addr == addr) || self.inbound.iter().any(|c| c.addr == addr)
    }

    /// Whether connecting out to `addr` would violate the outbound
    /// netgroup-diversity limit.
    fn diversity_blocked(&self, addr: PeerAddr) -> bool {
        self.cfg.defenses.hardened
            && self
                .outbound
                .iter()
                .any(|c| c.addr.netgroup() == addr.netgroup())
    }

    /// Pick the next outbound candidate: boot anchors first, then an
    /// even-odds draw between `tried` and `new`, walking buckets from a
    /// deterministic start until a connectable address appears. Returns
    /// `None` when no table entry is eligible.
    pub fn select_outbound(&mut self) -> Option<PeerAddr> {
        if self.outbound.len() >= self.cfg.outbound_slots {
            return None;
        }
        while let Some(a) = self.boot_anchors.pop() {
            if !self.is_connected(a) && !self.diversity_blocked(a) {
                counter!("addrman.anchor_selected").inc();
                return Some(a);
            }
        }
        // Up to a full scan's worth of draws across both tables.
        let attempts = (self.new_table.len() + self.tried_table.len()).max(16);
        for _ in 0..attempts {
            let draw = self.next_draw();
            let from_tried = draw & 1 == 0;
            let (table, len) = if from_tried {
                (&self.tried_table, self.tried_table.len())
            } else {
                (&self.new_table, self.new_table.len())
            };
            if len == 0 {
                continue;
            }
            let pos = ((draw >> 1) % len as u64) as usize;
            let Some(i) = table[pos] else { continue };
            let info = &self.addrs[i];
            if self.is_connected(info.addr) || self.diversity_blocked(info.addr) {
                continue;
            }
            return Some(info.addr);
        }
        None
    }

    /// Record an established outbound connection.
    pub fn connect_outbound(&mut self, addr: PeerAddr, tick: u64) {
        if self.is_connected(addr) {
            return;
        }
        self.outbound.push(ConnectedPeer {
            addr,
            connected_at: tick,
            last_useful: tick,
        });
        counter!("net.peer.slot.outbound_opened").inc();
        self.refresh_slot_gauges();
    }

    /// An inbound connection request from `addr`. When capacity is
    /// reached the eviction policy decides who goes.
    pub fn try_accept_inbound(&mut self, addr: PeerAddr, tick: u64) -> InboundDecision {
        if self.is_connected(addr) {
            return InboundDecision::Rejected;
        }
        if self.inbound.len() < self.cfg.inbound_slots {
            self.inbound.push(ConnectedPeer {
                addr,
                connected_at: tick,
                last_useful: tick,
            });
            counter!("net.peer.slot.inbound_opened").inc();
            self.refresh_slot_gauges();
            return InboundDecision::Accepted;
        }
        let victim = if self.cfg.defenses.hardened {
            self.eviction_candidate()
        } else {
            // Naive policy: the longest-connected peer goes — churn from a
            // single attacker steadily washes honest peers out.
            self.inbound
                .iter()
                .enumerate()
                .min_by_key(|(k, c)| (c.connected_at, *k))
                .map(|(k, _)| k)
        };
        match victim {
            None => {
                counter!("net.peer.slot.inbound_rejected").inc();
                InboundDecision::Rejected
            }
            Some(k) => {
                let evicted = self.inbound.remove(k);
                self.inbound.push(ConnectedPeer {
                    addr,
                    connected_at: tick,
                    last_useful: tick,
                });
                counter!("net.peer.slot.evictions").inc();
                trace_event!(
                    "net.peer.evicted",
                    group = u64::from(evicted.addr.netgroup()),
                    connected_at = evicted.connected_at,
                    last_useful = evicted.last_useful,
                );
                self.refresh_slot_gauges();
                InboundDecision::AcceptedEvicting(evicted.addr)
            }
        }
    }

    /// The protected-classes eviction policy: shield the longest-lived
    /// and the most-recently-useful inbound peers, then evict the newest
    /// connection from the most-populated netgroup.
    fn eviction_candidate(&self) -> Option<usize> {
        let mut order: Vec<usize> = (0..self.inbound.len()).collect();
        let mut protected = vec![false; self.inbound.len()];
        // Longest uptime first.
        order.sort_by_key(|&k| (self.inbound[k].connected_at, k));
        for &k in order.iter().take(self.cfg.protect_longest) {
            protected[k] = true;
        }
        // Most recently useful first.
        order.sort_by_key(|&k| (std::cmp::Reverse(self.inbound[k].last_useful), k));
        for &k in order.iter().take(self.cfg.protect_recent) {
            protected[k] = true;
        }
        // Most-populated netgroup among the unprotected.
        let mut group_counts: HashMap<u16, usize> = HashMap::new();
        for (k, c) in self.inbound.iter().enumerate() {
            if !protected[k] {
                *group_counts.entry(c.addr.netgroup()).or_default() += 1;
            }
        }
        let (&target_group, _) = group_counts
            .iter()
            .max_by_key(|(&g, &n)| (n, std::cmp::Reverse(g)))?;
        // Newest connection in that group goes.
        (0..self.inbound.len())
            .filter(|&k| !protected[k] && self.inbound[k].addr.netgroup() == target_group)
            .max_by_key(|&k| (self.inbound[k].connected_at, k))
    }

    /// Drop a connection (either direction).
    pub fn disconnect(&mut self, addr: PeerAddr) {
        self.outbound.retain(|c| c.addr != addr);
        self.inbound.retain(|c| c.addr != addr);
        counter!("net.peer.slot.closed").inc();
        self.refresh_slot_gauges();
    }

    /// Record that a connected peer did something useful (served a valid
    /// batch) — feeds the recently-useful eviction protection.
    pub fn mark_useful(&mut self, addr: PeerAddr, tick: u64) {
        for c in self.outbound.iter_mut().chain(self.inbound.iter_mut()) {
            if c.addr == addr {
                c.last_useful = tick;
            }
        }
    }

    /// If a feeler probe is due, return a `new`-table candidate to test.
    /// The caller reports the result via [`mark_good`] / [`mark_failed`];
    /// a successful feeler is how gossiped addresses earn `tried` slots
    /// without waiting for an outbound rotation.
    ///
    /// [`mark_good`]: PeerManager::mark_good
    /// [`mark_failed`]: PeerManager::mark_failed
    pub fn feeler_candidate(&mut self, tick: u64) -> Option<PeerAddr> {
        if let Some(last) = self.last_feeler {
            if tick.saturating_sub(last) < self.cfg.feeler_interval {
                return None;
            }
        }
        self.last_feeler = Some(tick);
        let len = self.new_table.len();
        for _ in 0..len.max(16) {
            let draw = self.next_draw();
            let pos = (draw % len.max(1) as u64) as usize;
            if let Some(i) = self.new_table.get(pos).copied().flatten() {
                let addr = self.addrs[i].addr;
                if !self.is_connected(addr) {
                    counter!("addrman.feelers").inc();
                    return Some(addr);
                }
            }
        }
        None
    }

    /// The current anchor set: the longest-lived outbound peers that have
    /// actually answered us, up to `anchor_count`. Persist across restarts
    /// with [`encode_anchors`](PeerManager::encode_anchors).
    pub fn anchors(&self) -> Vec<PeerAddr> {
        let mut out: Vec<&ConnectedPeer> = self
            .outbound
            .iter()
            .filter(|c| {
                self.index
                    .get(&c.addr)
                    .is_some_and(|&i| self.addrs[i].last_success.is_some())
            })
            .collect();
        out.sort_by_key(|c| (c.connected_at, c.addr));
        out.iter()
            .take(self.cfg.anchor_count)
            .map(|c| c.addr)
            .collect()
    }

    /// Serialize an anchor list (versioned, length-prefixed).
    pub fn encode_anchors(anchors: &[PeerAddr]) -> Vec<u8> {
        let mut out = vec![b'A', b'N', b'C', 1u8, anchors.len().min(255) as u8];
        for a in anchors.iter().take(255) {
            a.encode_into(&mut out);
        }
        out
    }

    /// Decode a persisted anchor list; `None` on any structural problem
    /// (anchors are an optimization — a corrupt file means an empty list,
    /// never a crash).
    pub fn decode_anchors(bytes: &[u8]) -> Option<Vec<PeerAddr>> {
        let rest = bytes.strip_prefix(&[b'A', b'N', b'C', 1u8])?;
        let (&n, mut rest) = rest.split_first()?;
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let (a, r) = PeerAddr::decode_from(rest)?;
            out.push(a);
            rest = r;
        }
        if !rest.is_empty() {
            return None;
        }
        Some(out)
    }

    /// Live outbound connections.
    pub fn outbound(&self) -> &[ConnectedPeer] {
        &self.outbound
    }

    /// Live inbound connections.
    pub fn inbound(&self) -> &[ConnectedPeer] {
        &self.inbound
    }

    /// Occupied slots in the `new` table.
    pub fn new_count(&self) -> usize {
        self.new_table.iter().flatten().count()
    }

    /// Occupied slots in the `tried` table.
    pub fn tried_count(&self) -> usize {
        self.tried_table.iter().flatten().count()
    }

    /// Fraction of occupied table slots (both tables) whose address
    /// satisfies `pred` — the eclipse campaign's table-poisoning metric.
    pub fn table_fraction(&self, pred: impl Fn(PeerAddr) -> bool) -> f64 {
        let mut total = 0usize;
        let mut hits = 0usize;
        for &slot in self.new_table.iter().chain(self.tried_table.iter()) {
            if let Some(i) = slot {
                total += 1;
                if pred(self.addrs[i].addr) {
                    hits += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn mgr(defenses: DefensePolicy) -> PeerManager {
        PeerManager::new(PeerManagerConfig {
            defenses,
            ..PeerManagerConfig::default()
        })
    }

    #[test]
    fn netgroup_is_the_slash_16() {
        let a = PeerAddr::synthetic(0x1234, 7);
        assert_eq!(a.ip[0], 0x12);
        assert_eq!(a.ip[1], 0x34);
        assert_eq!(a.netgroup(), 0x1234);
    }

    #[test]
    fn bucketing_bounds_single_group_flood() {
        let mut m = mgr(DefensePolicy::hardened());
        // 10_000 distinct addresses, all from one netgroup, gossiped by
        // one source: they can reach at most bucket_size slots of the one
        // (group, source) bucket.
        for host in 0..10_000u16 {
            m.add_addr(PeerAddr::synthetic(42, host), 42);
        }
        assert!(
            m.new_count() <= m.config().bucket_size,
            "one group × one source must stay inside one bucket, got {}",
            m.new_count()
        );
    }

    #[test]
    fn naive_table_has_no_flood_bound() {
        let mut m = mgr(DefensePolicy::naive());
        for host in 0..10_000u16 {
            m.add_addr(PeerAddr::synthetic(42, host), 42);
        }
        // Without bucketing the same flood spreads over the whole table.
        assert!(
            m.new_count() > m.config().bucket_size * 8,
            "flood should fill the naive table, got {}",
            m.new_count()
        );
    }

    #[test]
    fn outbound_diversity_limits_one_per_group() {
        let mut m = mgr(DefensePolicy::hardened());
        for host in 0..4u16 {
            let a = PeerAddr::synthetic(9, host);
            m.add_addr(a, 1000 + host);
            m.mark_good(a, 0);
        }
        let first = PeerAddr::synthetic(9, 0);
        m.connect_outbound(first, 0);
        // Everything else shares netgroup 9 and there is nothing else, so
        // selection must refuse.
        for _ in 0..4 {
            if let Some(next) = m.select_outbound() {
                assert_ne!(
                    next.netgroup(),
                    first.netgroup(),
                    "second outbound in the same netgroup"
                );
            }
        }
    }

    #[test]
    fn selection_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut m = PeerManager::new(PeerManagerConfig {
                seed,
                ..PeerManagerConfig::default()
            });
            for g in 0..32u16 {
                for h in 0..4u16 {
                    m.add_addr(PeerAddr::synthetic(g, h), 500 + g);
                }
            }
            let mut picks = Vec::new();
            for t in 0..6u64 {
                if let Some(a) = m.select_outbound() {
                    m.connect_outbound(a, t);
                    picks.push(a);
                }
            }
            picks
        };
        assert_eq!(run(7), run(7), "same seed, same selection");
        assert_ne!(run(7), run(8), "different seed, different selection");
    }

    #[test]
    fn mark_good_promotes_to_tried_and_clears_new() {
        let mut m = mgr(DefensePolicy::hardened());
        let a = PeerAddr::synthetic(3, 1);
        assert!(m.add_addr(a, 77));
        assert_eq!(m.new_count(), 1);
        assert_eq!(m.tried_count(), 0);
        m.mark_good(a, 5);
        assert_eq!(m.new_count(), 0);
        assert_eq!(m.tried_count(), 1);
        // Gossip cannot demote a tried entry.
        assert!(m.add_addr(a, 99));
        assert_eq!(m.tried_count(), 1);
        assert_eq!(m.new_count(), 0);
    }

    #[test]
    fn repeated_failures_expire_new_entries() {
        let mut m = mgr(DefensePolicy::hardened());
        let a = PeerAddr::synthetic(4, 1);
        m.add_addr(a, 77);
        for _ in 0..m.config().max_failures {
            m.mark_failed(a);
        }
        assert_eq!(m.new_count(), 0, "failed-out entry must leave the table");
    }

    #[test]
    fn eviction_protects_long_lived_and_recently_useful() {
        let mut m = mgr(DefensePolicy::hardened());
        // Fill inbound: 8 honest from distinct groups (old, useful), then
        // attacker connections from one group.
        for h in 0..8u16 {
            let a = PeerAddr::synthetic(100 + h, 0);
            assert_eq!(
                m.try_accept_inbound(a, u64::from(h)),
                InboundDecision::Accepted
            );
        }
        for h in 0..8u16 {
            let a = PeerAddr::synthetic(7, h);
            assert_eq!(
                m.try_accept_inbound(a, 50 + u64::from(h)),
                InboundDecision::Accepted
            );
        }
        // Honest peers keep being useful.
        for h in 0..8u16 {
            m.mark_useful(PeerAddr::synthetic(100 + h, 0), 100);
        }
        // Capacity reached; further attacker churn must evict attacker
        // connections (group 7 is the most populated unprotected group).
        for h in 8..40u16 {
            match m.try_accept_inbound(PeerAddr::synthetic(7, h), 200 + u64::from(h)) {
                InboundDecision::AcceptedEvicting(victim) => {
                    assert_eq!(victim.netgroup(), 7, "honest peer evicted by churn");
                }
                InboundDecision::Rejected => {}
                InboundDecision::Accepted => panic!("inbound was full"),
            }
        }
        let honest_left = m
            .inbound()
            .iter()
            .filter(|c| c.addr.netgroup() >= 100)
            .count();
        assert_eq!(honest_left, 8, "all honest inbound survived the churn");
    }

    #[test]
    fn naive_eviction_washes_out_old_peers() {
        let mut m = mgr(DefensePolicy::naive());
        for h in 0..16u16 {
            let group = if h < 8 { 100 + h } else { 7 };
            m.try_accept_inbound(PeerAddr::synthetic(group, h), u64::from(h));
        }
        for h in 100..200u16 {
            m.try_accept_inbound(PeerAddr::synthetic(7, h), u64::from(h));
        }
        let honest_left = m
            .inbound()
            .iter()
            .filter(|c| c.addr.netgroup() >= 100)
            .count();
        assert_eq!(honest_left, 0, "naive eviction should wash honest out");
    }

    #[test]
    fn anchors_round_trip_and_seed_selection() {
        let mut m = mgr(DefensePolicy::hardened());
        let a = PeerAddr::synthetic(1, 1);
        let b = PeerAddr::synthetic(2, 1);
        for (t, &x) in [a, b].iter().enumerate() {
            m.add_addr(x, x.netgroup());
            m.mark_good(x, t as u64);
            m.connect_outbound(x, t as u64);
        }
        let anchors = m.anchors();
        assert_eq!(anchors, vec![a, b]);
        let bytes = PeerManager::encode_anchors(&anchors);
        assert_eq!(PeerManager::decode_anchors(&bytes).unwrap(), anchors);
        assert_eq!(PeerManager::decode_anchors(&bytes[..3]), None);
        let mut corrupt = bytes.clone();
        corrupt[3] = 9; // unknown version
        assert_eq!(PeerManager::decode_anchors(&corrupt), None);

        // A restarted manager selects the anchors first.
        let mut m2 = mgr(DefensePolicy::hardened()).with_anchors(&anchors, 0);
        let first = m2.select_outbound().unwrap();
        m2.connect_outbound(first, 0);
        let second = m2.select_outbound().unwrap();
        let mut picked = vec![first, second];
        picked.sort();
        assert_eq!(picked, vec![a, b], "anchors selected before table draws");
    }

    #[test]
    fn feeler_cadence_respects_interval() {
        let mut m = mgr(DefensePolicy::hardened());
        for g in 0..8u16 {
            m.add_addr(PeerAddr::synthetic(g, 0), 900);
        }
        assert!(m.feeler_candidate(0).is_some());
        assert!(m.feeler_candidate(1).is_none(), "interval not elapsed");
        assert!(m.feeler_candidate(m.config().feeler_interval).is_some());
    }

    #[test]
    fn table_fraction_reports_poisoning() {
        let mut m = mgr(DefensePolicy::hardened());
        for g in 0..10u16 {
            m.add_addr(PeerAddr::synthetic(g, 0), g);
        }
        let f = m.table_fraction(|a| a.netgroup() < 5);
        assert!(f > 0.0 && f < 1.0);
    }
}
