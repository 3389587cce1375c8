//! The shared flood fabric: execution-wide broadcast-once records.
//!
//! Under the local broadcast model, every neighbor of a transmitter `u`
//! receives the *same* first message for each `(u, Π)` flooding key — that is
//! rule (ii) of the paper's Algorithm 1, and it is what suppresses
//! equivocation. Before this module existed the workspace only used the
//! invariant for correctness: each of the `n` simulated nodes kept a private
//! `(sender, path) → value` map and re-derived the same facts `n` times per
//! execution. The [`FloodLedger`] records each distinct broadcast **once per
//! execution**; per-node flood state collapses to [`DenseBits`] membership
//! bitsets over arena/ledger indices plus a (normally empty) per-node
//! override map.
//!
//! **Sharing is an optimization, not a soundness assumption.** A node whose
//! own first value for a key differs from the ledger's record — possible only
//! when the communication model lets the sender deliver different copies to
//! different receivers, i.e. hybrid-model equivocators or the point-to-point
//! baseline — stores a per-node override, and queries always answer with the
//! node's own view. The ledger-backed engines are therefore observably
//! identical to the per-node control engines under *every* communication
//! model; under local broadcast the overrides are provably empty and every
//! receiver after the first pays one lookup instead of one insertion.
//!
//! # Channels
//!
//! A single execution can run several logically independent floods whose
//! rule-(ii) key spaces must not collide: Algorithm 2 floods values, reports
//! and decisions; Algorithm 1 re-floods once per candidate fault set; the
//! point-to-point baseline floods once per king-algorithm step. Each such
//! flood opens a **channel** named by a `(tag, epoch)` pair — every node of
//! the execution derives the same name at the same protocol step, so they
//! all share one channel without coordination. Channels two epochs behind
//! the newest of their tag are retired and their storage recycled.
//!
//! # Dense report ids
//!
//! Algorithm 2's phase-2 reports flood one stream per reported phase-1
//! transmission, along every path, and each distinct broadcast needs a
//! shared record. Their rule-(ii) key is the wire identity
//! `(u, Π, observed, observed_path)`: transmitter, relay path so far, and the
//! reported transmission. A map keyed by it would hold one entry per
//! broadcast, millions for one wheel-graph run. For a broadcast that passes
//! validation, though, the key is the same thing as the triple
//! `(stream, relay, form)`:
//!
//! - the **stream** is `(observed, observed_path)`;
//! - the **relay** is the interned `Π‑u`, or `Π` itself when `u` is
//!   already `Π`'s last node (a report initiation, or a replay);
//! - the **form** is which of the two the relay is.
//!
//! Forwards: the relay and form are functions of `(u, Π)`. Backwards: `u`
//! is the relay's last node, `Π` is the relay (retransmission form) or its
//! parent (extension form), and `observed` must be the relay's first node —
//! a validity condition. So distinct valid keys map to distinct triples and
//! back. The relay of a stream starts at `observed`, so
//! [`crate::PathArena::rank`] (dense among the paths with one first node)
//! indexes it densely: each stream keeps a `Vec<u32>` of record indices at
//! `2·rank + form`, and only the small stream table is hashed. The two
//! forms do collide on the relay — `(u, Π‑u)`, a retransmission, and
//! `(u, Π)`, an extension, both have relay `Π‑u` — and are distinct keys,
//! which is what the form bit is for.
//!
//! Invalid broadcasts get no record: every receiver of the same
//! transmission reads the invalid verdict from the slot table, and a replay
//! in another slot is validated again (validity is a function of the key).
//! Record indices are handed out in first-seen order of the valid
//! broadcasts, so per-node state keyed by them is unchanged by the id
//! scheme. [`FloodLedger::resolve_report`] is the single entry point.

use std::cell::{Ref, RefCell, RefMut};
use std::fmt;
use std::rc::Rc;

use crate::fx::FxHashMap;
use crate::{NodeId, Path, PathId, Value};

/// A growable bitset over dense `usize` indices.
///
/// The flood engines key per-node rule-(ii)/(iv) membership by arena or
/// ledger indices; a bitset turns each membership test into a word read
/// where a hash map would hash and probe.
#[derive(Debug, Clone, Default)]
pub struct DenseBits {
    words: Vec<u64>,
}

impl DenseBits {
    /// Creates an empty bitset.
    #[must_use]
    pub fn new() -> Self {
        DenseBits::default()
    }

    /// Whether `index` is in the set.
    #[inline]
    #[must_use]
    pub fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|word| word & (1 << (index % 64)) != 0)
    }

    /// Inserts `index`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        let word = index / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1 << (index % 64);
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        fresh
    }

    /// Removes every element, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Iterates the set indices in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(word_index, word)| {
                let mut bits = *word;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(word_index * 64 + bit)
                })
            })
    }

    /// Number of set bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }
}

/// Handle to one flood channel of a [`FloodLedger`].
///
/// Obtained from [`FloodLedger::open`]; stable for the lifetime of the
/// channel (until it is retired two epochs later).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelId(u32);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// The shared record of one valid observation-flood broadcast (Algorithm 2's
/// phase-2 reports): everything about it that is the same for every
/// receiver, stored once per execution. See the module docs, "Dense report
/// ids".
#[derive(Debug, Clone, Copy)]
pub struct ReportRecord {
    /// The report's relay path *including* the transmitter.
    pub relay: PathId,
    /// The channel's dense id of the reported phase-1 transmission
    /// `(observed, observed_path)`; see [`FloodLedger::report_stream`].
    pub stream: u32,
    /// The first value this broadcast delivered (every receiver sees the
    /// same one under local broadcast).
    pub value: Value,
}

/// Rule-(ii) key of an observation-flood broadcast — the wire identity
/// `(transmitter, relay-path-so-far, observed, observed_path)` packed into
/// two words (see [`report_key`]). The slot tables verify entries against it;
/// its second word alone names the report's stream.
pub type ReportKey = (u64, u64);

/// Packs an observation-flood wire identity into a [`ReportKey`].
///
/// Collision-free: node indices are bounded by the graph size and path ids
/// are `u32` by construction, so each component fits its 32-bit half.
#[inline]
#[must_use]
pub fn report_key(
    from: NodeId,
    path: PathId,
    observed: NodeId,
    observed_path: PathId,
) -> ReportKey {
    debug_assert!(from.index() <= u32::MAX as usize);
    debug_assert!(observed.index() <= u32::MAX as usize);
    (
        ((from.index() as u64) << 32) | path.index() as u64,
        stream_key(observed, observed_path),
    )
}

/// The second word of a [`ReportKey`]: the reported phase-1 transmission.
#[inline]
fn stream_key(observed: NodeId, observed_path: PathId) -> u64 {
    ((observed.index() as u64) << 32) | observed_path.index() as u64
}

/// The receiver-independent facts of a report broadcast that passed
/// validation, as the caller's resolver hands them to
/// [`FloodLedger::resolve_report`]. Together with the key's stream they are
/// the broadcast's dense identity `(stream, relay, form)`.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedReport {
    /// The interned relay path: `Π‑u`, or `Π` itself when the transmitter
    /// `u` is already `Π`'s last node.
    pub relay: PathId,
    /// [`crate::PathArena::rank`] of `relay`.
    pub rank: u32,
    /// Whether `relay` is `Π` itself (the retransmission form).
    pub retransmission: bool,
    /// First 64 bits of the relay's member bitset.
    pub relay_members_low: u64,
    /// The value the broadcast carried.
    pub value: Value,
}

/// The valid report broadcasts of one channel, under dense ids.
#[derive(Debug, Default)]
struct ReportStore {
    /// Stream key (see [`stream_key`]) → dense stream id.
    streams: FxHashMap<u64, u32>,
    /// Per stream, the record index + 1 of each recorded broadcast at
    /// `2·rank + form` (0 = unrecorded).
    relays: Vec<Vec<u32>>,
    /// The records, densely indexed in first-seen order.
    records: Vec<ReportRecord>,
}

impl ReportStore {
    /// The lookup of a resolved broadcast of stream `stream_key`, recording
    /// it if it is new.
    fn record(&mut self, stream_key: u64, resolved: ResolvedReport) -> ReportLookup {
        let fresh = u32::try_from(self.relays.len()).expect("ledger overflow: > u32::MAX streams");
        let stream = *self.streams.entry(stream_key).or_insert(fresh);
        if stream == fresh {
            self.relays.push(Vec::new());
        }
        let relays = &mut self.relays[stream as usize];
        let position = 2 * resolved.rank as usize + usize::from(resolved.retransmission);
        if position >= relays.len() {
            // Geometric, like the capacity: a stream's relays mostly arrive
            // in rank order, so growing to exactly `position + 1` would
            // resize and zero-fill on nearly every new record.
            relays.resize((position + 1).max(2 * relays.len()), 0);
        }
        let index = match relays[position] {
            0 => {
                let stored = u32::try_from(self.records.len() + 1)
                    .expect("ledger overflow: > u32::MAX records");
                self.records.push(ReportRecord {
                    relay: resolved.relay,
                    stream,
                    value: resolved.value,
                });
                relays[position] = stored;
                stored - 1
            }
            stored => stored - 1,
        };
        let record = self.records[index as usize];
        ReportLookup {
            index,
            valid: true,
            value: record.value,
            relay: record.relay,
            relay_members_low: resolved.relay_members_low,
        }
    }

    fn clear(&mut self) {
        self.streams.clear();
        self.relays.clear();
        self.records.clear();
    }
}

#[derive(Debug, Default)]
struct Channel {
    /// Relay-id-indexed first values for floods whose rule-(ii) key is the
    /// relay path itself (`Π‑sender`): 0 = unrecorded, else `value + 1`.
    relay_first: Vec<u8>,
    /// The valid observation-flood broadcasts (wider rule-(ii) keys).
    reports: ReportStore,
    /// Per-transmission resolutions of value floods, keyed by
    /// [`flood_key`].
    relay_slots: SlotTable<u64, RelayLookup>,
    /// Per-transmission resolutions of observation floods.
    report_slots: SlotTable<ReportKey, ReportLookup>,
}

/// A key-verified table of per-transmission resolutions, indexed by the
/// transmission's slot in the simulator's shared delivery buffer.
///
/// Every receiver of a transmission reads it from the same slot, so the
/// first receiver's resolution — every receiver-independent fact about the
/// transmission — is stored under the slot and each later receiver reads it
/// back with one load. An entry carries the full message identity it was
/// resolved for, and a lookup whose key differs misses: a slot reused by a
/// different transmission (the next round of a per-round buffer, a renumbered
/// chain slot, the positions of two test-local direct inboxes) can only cost
/// a re-resolution, never yield a wrong answer. That is sound because what a
/// table stores is a function of the key and the channel alone.
///
/// Slots are stored relative to a base at or below the lowest slot the table
/// has seen, so its length spans about the channel's own transmissions, not
/// the whole buffer. A slot below the base moves the base down by at least
/// the table's current length (never below 0): the table grows downwards
/// geometrically, so the moves cost amortized O(1) per entry, however often
/// a round's buffer restarts below the slots a channel used before.
#[derive(Debug, Clone)]
struct SlotTable<K, V> {
    base: u32,
    entries: Vec<Option<(K, V)>>,
}

impl<K, V> Default for SlotTable<K, V> {
    fn default() -> Self {
        SlotTable {
            base: 0,
            entries: Vec::new(),
        }
    }
}

impl<K: Copy + Eq, V: Copy> SlotTable<K, V> {
    #[inline]
    fn get(&self, slot: u32, key: &K) -> Option<V> {
        let offset = slot.checked_sub(self.base)? as usize;
        match self.entries.get(offset) {
            Some(Some((stored, value))) if stored == key => Some(*value),
            _ => None,
        }
    }

    fn put(&mut self, slot: u32, key: K, value: V) {
        if self.entries.is_empty() {
            self.base = slot;
        } else if slot < self.base {
            let span = u32::try_from(self.entries.len()).unwrap_or(u32::MAX);
            let base = slot.min(self.base.saturating_sub(span));
            let shift = (self.base - base) as usize;
            self.entries.splice(0..0, std::iter::repeat_n(None, shift));
            self.base = base;
        }
        let offset = (slot - self.base) as usize;
        if offset >= self.entries.len() {
            self.entries.resize(offset + 1, None);
        }
        self.entries[offset] = Some((key, value));
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.base = 0;
    }
}

/// Whether `node` is set in a memoized low member word; `fallback` answers
/// for node indices ≥ 64.
#[inline]
fn low_word_contains(word: u64, node: NodeId, fallback: impl FnOnce() -> bool) -> bool {
    if node.index() < 64 {
        word & (1u64 << node.index()) != 0
    } else {
        fallback()
    }
}

/// The receiver-independent facts of one value-flood transmission `(b, Π)`
/// from `u`, as stored by [`FloodLedger::cache_relay_slot`]: everything a
/// receiver needs to apply rules (ii)–(iv) itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelayLookup {
    /// Whether the transmission passed rule (i).
    pub valid: bool,
    /// The first value recorded for the relay key (see
    /// [`FloodLedger::record_relay`]).
    pub first: Value,
    /// The interned relay path `Π‑u`.
    pub relay: PathId,
    /// First 64 bits of the relay's member bitset (rule (iii) in a register
    /// test for node indices < 64).
    pub relay_members_low: u64,
}

impl RelayLookup {
    /// The lookup of a transmission that failed rule (i).
    pub const INVALID: RelayLookup = RelayLookup {
        valid: false,
        first: Value::Zero,
        relay: PathId::EMPTY,
        relay_members_low: 0,
    };

    /// Whether `node` is on the relay path, via the memoized low word;
    /// `fallback` answers for node indices ≥ 64.
    #[inline]
    #[must_use]
    pub fn relay_contains(&self, node: NodeId, fallback: impl FnOnce() -> bool) -> bool {
        low_word_contains(self.relay_members_low, node, fallback)
    }
}

/// Packs a value-flood message identity `(from, Π, b)` into the key its
/// slot-table entry is verified against.
///
/// Collision-free: the path id takes the low 32 bits, the value one bit,
/// and node indices are bounded by the graph size, far below 2³¹.
#[inline]
#[must_use]
pub fn flood_key(from: NodeId, path: PathId, value: Value) -> u64 {
    assert!(from.index() < 1 << 31, "node index fits 31 bits");
    ((from.index() as u64) << 33) | (u64::from(value == Value::One) << 32) | path.index() as u64
}

/// The receiver-independent facts of one observation-flood broadcast, as
/// returned by [`FloodLedger::resolve_report`]: everything a receiver needs
/// to apply rules (ii)–(iv) without touching the record table.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReportLookup {
    /// Dense record index (for per-node bitsets and the accepted list);
    /// meaningless when the broadcast is invalid.
    pub index: u32,
    /// Whether the broadcast passed the receiver-independent checks.
    pub valid: bool,
    /// The first value the broadcast delivered anywhere.
    pub value: Value,
    /// The relay path including the transmitter.
    pub relay: PathId,
    /// First 64 bits of the relay's member bitset (rule (iii) in a register
    /// test for node indices < 64).
    pub relay_members_low: u64,
}

impl ReportLookup {
    /// The lookup of a broadcast that failed validation.
    pub const INVALID: ReportLookup = ReportLookup {
        index: 0,
        valid: false,
        value: Value::Zero,
        relay: PathId::EMPTY,
        relay_members_low: 0,
    };

    /// Whether `node` is on the relay path, via the memoized low word;
    /// `fallback` answers for node indices ≥ 64.
    #[inline]
    #[must_use]
    pub fn relay_contains(&self, node: NodeId, fallback: impl FnOnce() -> bool) -> bool {
        low_word_contains(self.relay_members_low, node, fallback)
    }
}

impl Channel {
    fn clear(&mut self) {
        self.relay_first.clear();
        self.reports.clear();
        self.relay_slots.clear();
        self.report_slots.clear();
    }
}

/// A channel lifecycle event recorded by the ledger's (opt-in) event log.
///
/// The ledger cannot depend on the telemetry crate (the dependency points
/// the other way), so instrumented executions enable this minimal internal
/// log via [`FloodLedger::set_event_log`] and drain it with
/// [`FloodLedger::take_channel_events`], translating entries into the
/// observer's event vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelEvent {
    /// A `(tag, epoch)` channel was opened into the dense slot `channel`.
    Opened {
        /// Channel tag.
        tag: u32,
        /// Channel epoch.
        epoch: u32,
        /// Dense slot assigned.
        channel: u32,
    },
    /// A `(tag, epoch)` channel was retired and its slot recycled.
    Retired {
        /// Channel tag.
        tag: u32,
        /// Channel epoch.
        epoch: u32,
        /// Dense slot recycled.
        channel: u32,
    },
}

/// The execution-wide flood ledger. The design notes (sharing, channels,
/// dense report ids) are in the module docs of `ledger.rs`.
///
/// Like the [`crate::PathArena`], one ledger exists per simulated execution
/// and is shared by every node through the simulator's node context
/// ([`SharedFloodLedger`]).
#[derive(Debug, Default)]
pub struct FloodLedger {
    names: FxHashMap<(u32, u32), u32>,
    channels: Vec<Channel>,
    free: Vec<u32>,
    /// Physical-epoch offset of the current instance session: every logical
    /// epoch a protocol derives is shifted by this amount before naming a
    /// channel, so consecutive consensus instances of a chained run never
    /// collide on `(tag, epoch)` names. See [`FloodLedger::begin_session`].
    session_base: u32,
    /// One past the highest physical epoch any channel was opened at.
    session_peak: u32,
    /// When `true`, channel open/retire operations append to `events`.
    /// Off by default: the uninstrumented hot path pays one branch.
    log_events: bool,
    events: Vec<ChannelEvent>,
    /// Execution-shared memo for disjoint-path plans between node pairs:
    /// deterministic pure functions of the (fixed) communication graph that
    /// every node would otherwise recompute identically. Algorithm 2's fault
    /// identification keys this by `(origin, other)`.
    pair_paths: FxHashMap<(NodeId, NodeId), Rc<Vec<Path>>>,
}

impl FloodLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        FloodLedger::default()
    }

    /// Opens (or joins) the channel named `(tag, epoch)`. Every node of the
    /// execution that derives the same name gets the same channel. Opening
    /// epoch `e` retires **every** channel of the tag at epoch `e − 2` or
    /// older, whose storage is recycled — by then every node has moved past
    /// them (protocol phases advance together, so nodes are never more than
    /// one epoch apart). Retiring the whole stale range, not just `e − 2`
    /// exactly, keeps consumers that derive non-consecutive epochs (e.g. a
    /// step-indexed flood that skips step numbers) from leaking channels.
    pub fn open(&mut self, tag: u32, epoch: u32) -> ChannelId {
        let epoch = self.session_base + epoch;
        self.session_peak = self.session_peak.max(epoch + 1);
        if let Some(&slot) = self.names.get(&(tag, epoch)) {
            return ChannelId(slot);
        }
        if epoch >= 2 {
            self.retire_through_physical(tag, epoch - 2);
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.channels.push(Channel::default());
            u32::try_from(self.channels.len() - 1).expect("ledger overflow: > u32::MAX channels")
        });
        self.channels[slot as usize].clear();
        self.names.insert((tag, epoch), slot);
        if self.log_events {
            self.events.push(ChannelEvent::Opened {
                tag,
                epoch,
                channel: slot,
            });
        }
        ChannelId(slot)
    }

    /// Retires every channel of `tag` whose epoch is at most `through`
    /// (a logical epoch of the current session), recycling their storage.
    /// Safe to call redundantly; called by [`FloodLedger::open`] and by the
    /// flood engines' restart paths.
    pub fn retire_through(&mut self, tag: u32, through: u32) {
        self.retire_through_physical(tag, self.session_base + through);
    }

    /// Begins the next instance session of a chained (repeated-consensus)
    /// run: every subsequent [`FloodLedger::open`] maps its logical epoch
    /// strictly above every physical epoch the previous session touched.
    ///
    /// The first open of each tag in the new session therefore retires that
    /// tag's channels from **two sessions back** (the usual two-epoch rule,
    /// applied at instance granularity), while the immediately previous
    /// session's newest channel stays live exactly long enough for its flood
    /// tail to drain into it. Returns the new session's base physical epoch.
    pub fn begin_session(&mut self) -> u32 {
        self.session_base = self.session_peak.max(self.session_base + 1);
        self.session_base
    }

    /// The largest number of concurrently live channels sharing one tag —
    /// the quantity the two-epoch retirement rule bounds (≤ 2 in steady
    /// state, whether epochs advance within one instance or across chained
    /// sessions).
    #[must_use]
    pub fn max_live_channels_per_tag(&self) -> usize {
        let mut counts: FxHashMap<u32, usize> = FxHashMap::default();
        for (tag, _) in self.names.keys() {
            *counts.entry(*tag).or_default() += 1;
        }
        counts.values().copied().max().unwrap_or(0)
    }

    /// Number of distinct tags with at least one live channel.
    #[must_use]
    pub fn live_tag_count(&self) -> usize {
        let mut tags: Vec<u32> = self.names.keys().map(|(tag, _)| *tag).collect();
        tags.sort_unstable();
        tags.dedup();
        tags.len()
    }

    fn retire_through_physical(&mut self, tag: u32, through: u32) {
        let mut stale: Vec<(u32, u32)> = self
            .names
            .keys()
            .filter(|(t, e)| *t == tag && *e <= through)
            .copied()
            .collect();
        // Epoch order, not map order: slot recycling and the channel-event
        // log must not depend on hash iteration order.
        stale.sort_unstable();
        for name in stale {
            if let Some(retired) = self.names.remove(&name) {
                self.channels[retired as usize].clear();
                self.free.push(retired);
                if self.log_events {
                    self.events.push(ChannelEvent::Retired {
                        tag: name.0,
                        epoch: name.1,
                        channel: retired,
                    });
                }
            }
        }
    }

    /// Enables or disables the channel-event log. Disabling also discards
    /// any pending entries.
    pub fn set_event_log(&mut self, enabled: bool) {
        self.log_events = enabled;
        if !enabled {
            self.events.clear();
        }
    }

    /// Whether the channel-event log is enabled.
    #[must_use]
    pub fn event_log_enabled(&self) -> bool {
        self.log_events
    }

    /// Drains the pending channel-lifecycle events, in occurrence order.
    pub fn take_channel_events(&mut self) -> Vec<ChannelEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of live channels.
    #[must_use]
    pub fn live_channels(&self) -> usize {
        self.names.len()
    }

    /// Number of channel slots ever allocated (live + recycled). Bounded
    /// retirement means this stays within a small constant of the number of
    /// *concurrently* live channels, no matter how many epochs a long
    /// multi-phase execution opens.
    #[must_use]
    pub fn allocated_channels(&self) -> usize {
        self.channels.len()
    }

    /// Records the broadcast with relay path `relay` carrying `value`,
    /// unless one was recorded before; returns the **first** value recorded
    /// for the key (which is `value` itself on first record).
    ///
    /// A caller whose own observed value differs from the returned first
    /// value must keep a per-node override — see the module docs.
    pub fn record_relay(&mut self, channel: ChannelId, relay: PathId, value: Value) -> Value {
        let first = &mut self.channels[channel.0 as usize].relay_first;
        let index = relay.index();
        if index >= first.len() {
            first.resize(index + 1, 0);
        }
        match first[index] {
            0 => {
                first[index] = encode(value);
                value
            }
            recorded => decode(recorded),
        }
    }

    /// The first value recorded for the relay key, if any.
    #[must_use]
    pub fn relay_value(&self, channel: ChannelId, relay: PathId) -> Option<Value> {
        self.channels[channel.0 as usize]
            .relay_first
            .get(relay.index())
            .copied()
            .filter(|&v| v != 0)
            .map(decode)
    }

    /// The resolution a previous receiver stored for the value-flood
    /// transmission in `slot`, if its key is `key` (see [`flood_key`]).
    #[inline]
    #[must_use]
    pub fn relay_lookup_at_slot(
        &self,
        channel: ChannelId,
        slot: u32,
        key: u64,
    ) -> Option<RelayLookup> {
        self.channels[channel.0 as usize]
            .relay_slots
            .get(slot, &key)
    }

    /// Stores the resolution of the value-flood transmission in `slot` for
    /// every later receiver.
    pub fn cache_relay_slot(
        &mut self,
        channel: ChannelId,
        slot: u32,
        key: u64,
        lookup: RelayLookup,
    ) {
        self.channels[channel.0 as usize]
            .relay_slots
            .put(slot, key, lookup);
    }

    /// Resolves the report broadcast with wire key `key` in `slot` to its
    /// shared record — the single entry point of the observation floods.
    ///
    /// A previous receiver of the same transmission left the answer in the
    /// key-verified slot table: one read. Otherwise `resolve` validates the
    /// broadcast (`None`: invalid) and the ledger finds or creates its
    /// record under the dense id `(stream, 2·rank + form)` — no hash of the
    /// wire key; see the module docs, "Dense report ids". Valid broadcasts
    /// get record indices in first-seen order; invalid ones get no record,
    /// only the slot entry that serves the transmission's other receivers.
    pub fn resolve_report(
        &mut self,
        channel: ChannelId,
        slot: u32,
        key: ReportKey,
        resolve: impl FnOnce() -> Option<ResolvedReport>,
    ) -> ReportLookup {
        let channel = &mut self.channels[channel.0 as usize];
        if let Some(lookup) = channel.report_slots.get(slot, &key) {
            return lookup;
        }
        let lookup = match resolve() {
            Some(resolved) => channel.reports.record(key.1, resolved),
            None => ReportLookup::INVALID,
        };
        channel.report_slots.put(slot, key, lookup);
        lookup
    }

    /// The record at a dense index previously returned by
    /// [`FloodLedger::resolve_report`].
    #[must_use]
    pub fn record(&self, channel: ChannelId, index: u32) -> ReportRecord {
        self.channels[channel.0 as usize].reports.records[index as usize]
    }

    /// The stream id of the phase-1 transmission `(observed, observed_path)`,
    /// if any valid report of it was recorded on the channel.
    #[must_use]
    pub fn report_stream(
        &self,
        channel: ChannelId,
        observed: NodeId,
        observed_path: PathId,
    ) -> Option<u32> {
        self.channels[channel.0 as usize]
            .reports
            .streams
            .get(&stream_key(observed, observed_path))
            .copied()
    }

    /// Number of report records on the channel.
    #[must_use]
    pub fn report_count(&self, channel: ChannelId) -> usize {
        self.channels[channel.0 as usize].reports.records.len()
    }

    /// The memoized disjoint-path plan for a node pair, if one was computed.
    #[must_use]
    pub fn pair_paths(&self, u: NodeId, v: NodeId) -> Option<Rc<Vec<Path>>> {
        self.pair_paths.get(&(u, v)).cloned()
    }

    /// Memoizes the disjoint-path plan for a node pair. The plan must be a
    /// deterministic function of the execution's communication graph (every
    /// node computes the same one), which is what makes sharing sound.
    pub fn set_pair_paths(&mut self, u: NodeId, v: NodeId, paths: Vec<Path>) -> Rc<Vec<Path>> {
        let paths = Rc::new(paths);
        self.pair_paths.insert((u, v), Rc::clone(&paths));
        paths
    }
}

#[inline]
fn encode(value: Value) -> u8 {
    match value {
        Value::Zero => 1,
        Value::One => 2,
    }
}

#[inline]
fn decode(byte: u8) -> Value {
    match byte {
        1 => Value::Zero,
        _ => Value::One,
    }
}

/// A clonable handle to the [`FloodLedger`] shared by every node of a
/// simulated execution, threaded through the simulator's node context
/// exactly like [`crate::SharedPathArena`].
#[derive(Debug, Clone, Default)]
pub struct SharedFloodLedger {
    inner: Rc<RefCell<FloodLedger>>,
}

impl SharedFloodLedger {
    /// Creates a fresh, empty ledger.
    #[must_use]
    pub fn new() -> Self {
        SharedFloodLedger::default()
    }

    /// Immutable access to the underlying ledger.
    ///
    /// # Panics
    ///
    /// Panics if the ledger is currently mutably borrowed.
    #[must_use]
    pub fn borrow(&self) -> Ref<'_, FloodLedger> {
        self.inner.borrow()
    }

    /// Mutable access to the underlying ledger.
    ///
    /// # Panics
    ///
    /// Panics if the ledger is currently borrowed.
    #[must_use]
    pub fn borrow_mut(&self) -> RefMut<'_, FloodLedger> {
        self.inner.borrow_mut()
    }

    /// Opens (or joins) a named channel. See [`FloodLedger::open`].
    pub fn open(&self, tag: u32, epoch: u32) -> ChannelId {
        self.inner.borrow_mut().open(tag, epoch)
    }

    /// Retires every channel of `tag` at epoch `through` or older. See
    /// [`FloodLedger::retire_through`].
    pub fn retire_through(&self, tag: u32, through: u32) {
        self.inner.borrow_mut().retire_through(tag, through);
    }

    /// Begins the next instance session of a chained run. See
    /// [`FloodLedger::begin_session`].
    pub fn begin_session(&self) -> u32 {
        self.inner.borrow_mut().begin_session()
    }

    /// The first value recorded for a relay key. See
    /// [`FloodLedger::relay_value`].
    #[must_use]
    pub fn relay_value(&self, channel: ChannelId, relay: PathId) -> Option<Value> {
        self.inner.borrow().relay_value(channel, relay)
    }

    /// Enables or disables the channel-event log. See
    /// [`FloodLedger::set_event_log`].
    pub fn set_event_log(&self, enabled: bool) {
        self.inner.borrow_mut().set_event_log(enabled);
    }

    /// Drains pending channel-lifecycle events. See
    /// [`FloodLedger::take_channel_events`].
    pub fn take_channel_events(&self) -> Vec<ChannelEvent> {
        self.inner.borrow_mut().take_channel_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn pid(i: usize) -> PathId {
        PathId::from_index(i)
    }

    #[test]
    fn dense_bits_insert_contains_iterate() {
        let mut bits = DenseBits::new();
        assert!(bits.is_empty());
        assert!(!bits.contains(0));
        assert!(bits.insert(3));
        assert!(bits.insert(64));
        assert!(bits.insert(200));
        assert!(!bits.insert(64), "re-insert reports not-fresh");
        assert!(bits.contains(3));
        assert!(bits.contains(64));
        assert!(!bits.contains(4));
        assert_eq!(bits.ones().collect::<Vec<_>>(), vec![3, 64, 200]);
        assert_eq!(bits.len(), 3);
        bits.clear();
        assert!(bits.is_empty());
        assert!(!bits.contains(3));
    }

    #[test]
    fn relay_records_keep_the_first_value() {
        let mut ledger = FloodLedger::new();
        let ch = ledger.open(0, 0);
        assert_eq!(ledger.relay_value(ch, pid(5)), None);
        assert_eq!(ledger.record_relay(ch, pid(5), Value::One), Value::One);
        // A conflicting later record does not overwrite; the caller learns
        // the first value and keeps its own override.
        assert_eq!(ledger.record_relay(ch, pid(5), Value::Zero), Value::One);
        assert_eq!(ledger.relay_value(ch, pid(5)), Some(Value::One));
    }

    #[test]
    fn channels_are_named_and_isolated() {
        let mut ledger = FloodLedger::new();
        let a = ledger.open(0, 0);
        let b = ledger.open(1, 0);
        assert_ne!(a, b);
        assert_eq!(ledger.open(0, 0), a, "same name joins the same channel");
        ledger.record_relay(a, pid(1), Value::One);
        assert_eq!(ledger.relay_value(b, pid(1)), None);
    }

    #[test]
    fn epochs_retire_and_recycle() {
        let mut ledger = FloodLedger::new();
        let e0 = ledger.open(0, 0);
        ledger.record_relay(e0, pid(9), Value::One);
        let _e1 = ledger.open(0, 1);
        // Opening epoch 2 retires epoch 0 and recycles its slot.
        let e2 = ledger.open(0, 2);
        assert_eq!(ledger.live_channels(), 2);
        assert_eq!(
            ledger.relay_value(e2, pid(9)),
            None,
            "recycled channel starts clean"
        );
    }

    #[test]
    fn long_epoch_sequences_keep_storage_bounded() {
        // Regression: a multi-phase algorithm restarts its flood once per
        // phase, opening one epoch each time. Retirement must keep both the
        // live channel count and the allocated slot count bounded — before
        // the shared fabric this was the per-node state that `restart`
        // recycled, and the ledger must not reintroduce the leak.
        let mut ledger = FloodLedger::new();
        for epoch in 0..64 {
            let channel = ledger.open(7, epoch);
            ledger.record_relay(channel, pid(epoch as usize), Value::One);
            assert!(
                ledger.live_channels() <= 2,
                "epoch {epoch}: {} live channels",
                ledger.live_channels()
            );
        }
        assert!(
            ledger.allocated_channels() <= 3,
            "retired slots must be recycled, not re-allocated: {}",
            ledger.allocated_channels()
        );
    }

    #[test]
    fn skipped_epochs_do_not_leak_channels() {
        // A step-indexed consumer can derive non-consecutive epochs (e.g.
        // only every third step floods). The old retirement rule removed
        // exactly `epoch - 2` and leaked everything older; the stale range
        // must be swept instead.
        let mut ledger = FloodLedger::new();
        let _ = ledger.open(0, 0);
        let _ = ledger.open(0, 3);
        assert_eq!(
            ledger.live_channels(),
            1,
            "epoch 0 is stale once epoch 3 opens"
        );
        let _ = ledger.open(0, 10);
        let _ = ledger.open(1, 0); // other tags are untouched
        assert_eq!(ledger.live_channels(), 2);
        assert!(ledger.allocated_channels() <= 3);
    }

    fn resolved(relay: usize, rank: u32, retransmission: bool, value: Value) -> ResolvedReport {
        ResolvedReport {
            relay: pid(relay),
            rank,
            retransmission,
            relay_members_low: 0b10,
            value,
        }
    }

    #[test]
    fn resolve_report_records_once_and_verifies_slots() {
        let mut ledger = FloodLedger::new();
        let ch = ledger.open(1, 0);
        let key_a = report_key(n(1), pid(2), n(0), pid(1));
        let key_b = report_key(n(3), pid(2), n(0), pid(1));
        // First receiver of slot 7 resolves and records.
        let first = ledger.resolve_report(ch, 7, key_a, || Some(resolved(5, 3, false, Value::One)));
        assert!(first.valid);
        assert_eq!(first.index, 0);
        assert_eq!(first.relay, pid(5));
        assert_eq!(first.relay_members_low, 0b10);
        // Same slot, same key: a hit, the resolver is not consulted.
        let again = ledger.resolve_report(ch, 7, key_a, || unreachable!("slot hit"));
        assert_eq!(again.index, 0);
        // Another slot re-resolves to the same record and keeps its first
        // value.
        let replay =
            ledger.resolve_report(ch, 2, key_a, || Some(resolved(5, 3, false, Value::Zero)));
        assert_eq!((replay.index, replay.value), (0, Value::One));
        // A colliding slot with another key is not trusted; an invalid
        // broadcast gets no record.
        let invalid = ledger.resolve_report(ch, 7, key_b, || None);
        assert!(!invalid.valid);
        assert!(!ledger.resolve_report(ch, 7, key_b, || unreachable!()).valid);
        assert_eq!(ledger.report_count(ch), 1);
        let record = ledger.record(ch, 0);
        assert_eq!(record.relay, pid(5));
        assert_eq!(Some(record.stream), ledger.report_stream(ch, n(0), pid(1)));
        assert_eq!(ledger.report_stream(ch, n(0), pid(2)), None);
    }

    #[test]
    fn report_forms_and_streams_get_distinct_records() {
        let mut ledger = FloodLedger::new();
        let ch = ledger.open(1, 0);
        // Relay 5 (rank 3) in both forms, then in a second stream.
        let extension = report_key(n(1), pid(4), n(0), pid(1));
        let retransmission = report_key(n(1), pid(5), n(0), pid(1));
        let other_stream = report_key(n(1), pid(4), n(0), pid(9));
        let a = ledger.resolve_report(ch, 0, extension, || Some(resolved(5, 3, false, Value::One)));
        let b = ledger.resolve_report(ch, 1, retransmission, || {
            Some(resolved(5, 3, true, Value::One))
        });
        let c = ledger.resolve_report(ch, 2, other_stream, || {
            Some(resolved(5, 3, false, Value::One))
        });
        assert_eq!([a.index, b.index, c.index], [0, 1, 2]);
        assert_eq!(ledger.record(ch, 0).stream, ledger.record(ch, 1).stream);
        assert_ne!(ledger.record(ch, 0).stream, ledger.record(ch, 2).stream);
        // A recycled channel starts with no streams or records.
        let _ = ledger.open(1, 1);
        let recycled = ledger.open(1, 2);
        assert_eq!(recycled, ch);
        assert_eq!(ledger.report_count(recycled), 0);
        assert_eq!(ledger.report_stream(recycled, n(0), pid(1)), None);
    }

    #[test]
    fn relay_slots_verify_the_full_message_identity() {
        let mut ledger = FloodLedger::new();
        let ch = ledger.open(0, 0);
        let lookup = RelayLookup {
            valid: true,
            first: Value::One,
            relay: pid(9),
            relay_members_low: 0b1_0001_0000,
        };
        let key = flood_key(n(8), pid(3), Value::One);
        assert!(ledger.relay_lookup_at_slot(ch, 10, key).is_none());
        ledger.cache_relay_slot(ch, 10, key, lookup);
        assert_eq!(
            ledger.relay_lookup_at_slot(ch, 10, key).unwrap().relay,
            pid(9)
        );
        // The same slot carrying another sender, path or value misses.
        for other in [
            flood_key(n(7), pid(3), Value::One),
            flood_key(n(8), pid(4), Value::One),
            flood_key(n(8), pid(3), Value::Zero),
        ] {
            assert_ne!(other, key);
            assert!(ledger.relay_lookup_at_slot(ch, 10, other).is_none());
        }
        // Slots below the table's base re-base it without losing entries.
        ledger.cache_relay_slot(ch, 4, key, RelayLookup::INVALID);
        assert!(!ledger.relay_lookup_at_slot(ch, 4, key).unwrap().valid);
        assert!(ledger.relay_lookup_at_slot(ch, 10, key).unwrap().valid);
        ledger.cache_relay_slot(ch, 0, key, lookup);
        for slot in [0, 4, 10] {
            assert!(ledger.relay_lookup_at_slot(ch, slot, key).is_some());
        }
        // A recycled channel starts with an empty table.
        let _ = ledger.open(0, 1);
        let recycled = ledger.open(0, 2);
        assert_eq!(recycled, ch);
        assert!(ledger.relay_lookup_at_slot(recycled, 10, key).is_none());
    }

    #[test]
    fn slot_tables_rebase_geometrically() {
        // Slots arriving in descending order, as when each round's buffer
        // restarts below the slots a channel used before: every entry stays
        // readable, and the base moves a logarithmic number of times, not
        // once per slot.
        let mut table: SlotTable<u64, u32> = SlotTable::default();
        let mut rebases = 0;
        for slot in (0..1024u32).rev() {
            let base = table.base;
            table.put(slot, u64::from(slot), slot);
            rebases += usize::from(table.base != base);
            assert!(table.base <= slot);
        }
        assert!(rebases <= 12, "{rebases} rebases");
        assert_eq!(table.entries.len(), 1024);
        for slot in 0..1024u32 {
            assert_eq!(table.get(slot, &u64::from(slot)), Some(slot));
        }
    }

    #[test]
    fn relay_contains_uses_the_memoized_word() {
        let lookup = ReportLookup {
            index: 0,
            valid: true,
            value: Value::One,
            relay: pid(5),
            relay_members_low: (1 << 3) | (1 << 40),
        };
        assert!(lookup.relay_contains(n(3), || unreachable!()));
        assert!(lookup.relay_contains(n(40), || unreachable!()));
        assert!(!lookup.relay_contains(n(4), || unreachable!()));
        // Indices >= 64 fall back to the caller's exact test.
        assert!(lookup.relay_contains(n(70), || true));
        assert!(!lookup.relay_contains(n(70), || false));
    }

    #[test]
    fn report_keys_pack_uniquely() {
        let a = report_key(n(1), pid(2), n(3), pid(4));
        let b = report_key(n(2), pid(1), n(3), pid(4));
        let c = report_key(n(1), pid(2), n(4), pid(3));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, report_key(n(1), pid(2), n(3), pid(4)));
    }

    #[test]
    fn pair_path_memo_shares_plans() {
        let mut ledger = FloodLedger::new();
        assert!(ledger.pair_paths(n(0), n(1)).is_none());
        let plan = vec![Path::from_nodes([n(0), n(2), n(1)])];
        let shared = ledger.set_pair_paths(n(0), n(1), plan.clone());
        assert_eq!(*shared, plan);
        assert_eq!(*ledger.pair_paths(n(0), n(1)).unwrap(), plan);
    }

    #[test]
    fn sessions_isolate_instances_and_stay_bounded() {
        // A chained repeated-consensus run begins one session per instance.
        // Each instance re-derives logical epoch 0 for its flood tags; the
        // session base must keep the names distinct, keep the previous
        // instance's channel live (its tail is still draining), and retire
        // everything two instances back.
        let mut ledger = FloodLedger::new();
        let mut previous = ledger.open(3, 0);
        ledger.record_relay(previous, pid(1), Value::One);
        for instance in 1..500 {
            ledger.begin_session();
            let current = ledger.open(3, 0);
            assert_ne!(
                current, previous,
                "instance {instance} joined a stale channel"
            );
            assert_eq!(
                ledger.relay_value(current, pid(1)),
                None,
                "instance {instance} sees the previous instance's records"
            );
            ledger.record_relay(current, pid(1), Value::One);
            assert!(
                ledger.live_channels() <= 2,
                "instance {instance} leaks channels"
            );
            assert!(ledger.max_live_channels_per_tag() <= 2);
            previous = current;
        }
        assert!(
            ledger.allocated_channels() <= 3,
            "retired instance channels must recycle slots: {}",
            ledger.allocated_channels()
        );
        assert_eq!(ledger.live_tag_count(), 1);
    }

    #[test]
    fn sessions_clear_multi_epoch_instances() {
        // An instance that advances several logical epochs itself (Algorithm
        // 1 restarts once per candidate fault set) must still hand the next
        // session a base above its peak, and per-tag liveness stays bounded.
        let mut ledger = FloodLedger::new();
        for _ in 0..50 {
            for epoch in 0..5 {
                let _ = ledger.open(7, epoch);
                let _ = ledger.open(8, epoch);
            }
            assert!(ledger.max_live_channels_per_tag() <= 2);
            ledger.begin_session();
        }
        assert_eq!(ledger.live_tag_count(), 2);
        assert!(ledger.allocated_channels() <= 6);
    }

    #[test]
    fn session_retire_through_shifts_with_the_base() {
        let mut ledger = FloodLedger::new();
        let _ = ledger.open(0, 0);
        ledger.begin_session();
        let _ = ledger.open(0, 0);
        // Logical retirement in the new session must not miss the previous
        // session's channel once explicitly asked to sweep it.
        ledger.retire_through(0, 0);
        assert_eq!(ledger.live_channels(), 0);
    }

    #[test]
    fn shared_handle_is_one_ledger() {
        let shared = SharedFloodLedger::new();
        let clone = shared.clone();
        let ch = shared.open(0, 0);
        assert_eq!(
            clone.borrow_mut().record_relay(ch, pid(3), Value::One),
            Value::One
        );
        assert_eq!(shared.relay_value(ch, pid(3)), Some(Value::One));
    }
}
