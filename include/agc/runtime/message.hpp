#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "agc/graph/view.hpp"

/// \file message.hpp
/// Messages and the flat mailbox arena of the synchronous round engine.
///
/// A message is a sequence of machine words, each with a *declared width in
/// bits*.  The transport accounts the summed width per edge per round
/// (CONGEST caps it at B bits, the Bit-Round model at 1 bit), so
/// bit-complexity results such as Lemma 5.2 are measured properties of an
/// execution, not assertions.  LOCAL-model algorithms (e.g. the line-graph
/// simulations of Section 4.2) may send arbitrarily many words per edge.
///
/// Storage is one MailboxArena per engine, not one container per vertex.  A
/// sender whose whole round is one broadcast word — every locally-iterative
/// rule and every registry algorithm under SET-LOCAL — stores that word
/// once, in its *broadcast slot*, and touches none of its ports: the
/// broadcast-CONGEST cost of one message per vertex per round.  Everything
/// else goes through ports: a CSR offset table maps every directed edge (a
/// *port* of its sender) to one inline Word slot in a flat buffer, with a
/// per-shard spill lane for the rare ports that carry more than one word per
/// round (LOCAL-model multi-word messages).  The arena is sized from the
/// graph's degree structure once per topology (Graph::topology_version) and
/// *reset — not reallocated — each round*, so the steady-state round loop
/// performs zero heap allocations for bounded models.  Programs interact
/// with it only through the non-owning OutboxRef / InboxRef views below.

namespace agc::runtime {

struct Word {
  std::uint64_t value = 0;
  std::uint32_t bits = 64;  ///< declared width; must satisfy value < 2^bits

  friend bool operator==(const Word&, const Word&) = default;
};

/// Helper: the narrowest width that can carry `value`.
[[nodiscard]] constexpr std::uint32_t width_of(std::uint64_t value) noexcept {
  std::uint32_t w = 0;
  while (value != 0) {
    ++w;
    value >>= 1;
  }
  return w == 0 ? 1 : w;
}

class OutboxRef;
class InboxRef;

/// Flat CSR-backed mailbox storage for every vertex's outgoing messages of
/// one round.
///
/// Layout:
///   * `slot_[v]` is sender v's broadcast slot: one Word, valid while
///     `mode_[v] == Mode::Slot`.  OutboxRef::broadcast on a sender with no
///     prior sends this round fills it and writes no port.  A second word, a
///     directed send, or an installed ChannelHook (RoundContext::send calls
///     expand_slot before the hook) first copies the slot word into every
///     port of v, after which v's words live only in ports.  Readers — the
///     deliver phase, InboxRef, OutboxRef::at — take the sender's id from the
///     receiver's neighbor list and read the slot when it is set.  A
///     broadcast thus costs one 16-byte write instead of one per port, and
///     the slot table has n entries — there is no O(m) sender map.
///   * `base_[v] .. base_[v+1]` are the global port indices of v, one per
///     directed edge (v, neighbor), in neighbor-sorted (port) order.
///   * Each port owns kInline Word slot(s) in `inline_`; the first word of a
///     port — all of it, for single-word protocols — lives there, with no
///     indirection.
///   * A port that outgrows its inline slot relocates *wholly* into the spill
///     lane of the shard that owns its sender, so `words()` always returns
///     one contiguous span.  Runs grow geometrically and lane buffers are
///     never shrunk, so spill allocation stops once the protocol's message
///     sizes stabilize.
///   * `peer_port_[base_[v] + p]` is the global port of v in its p-th
///     neighbor's table — the precomputed reverse-port map that lets
///     delivery and InboxRef read the sender's words directly (no per-round
///     binary search, no copy).
///
/// Concurrency contract (matches docs/EXEC.md): during the send phase, shard
/// s writes only the slots, modes and ports of its own contiguous vertex
/// range and only lane s; after the send barrier the arena is read-only
/// until the next round's send phase resets it.  Port *contents* are
/// therefore independent of the shard count; only the (unobservable) lane
/// layout varies.
///
/// Dynamic topology: the arena is rebuilt from the graph whenever
/// Graph::topology_version() changes (adversarial add_edge / remove_edge /
/// add_vertex / reset_vertex between rounds), so port tables never go stale
/// — see the churn regression tests in tests/test_mailbox_arena.cpp.  Views
/// handed to a program are valid only within the callback that received
/// them.
class MailboxArena {
 public:
  static constexpr std::uint32_t kInline = 1;       ///< words per port, inline
  static constexpr std::uint32_t kNoLane = 0xffffffffu;

  /// Rebuild the port tables iff the graph's topology changed since the last
  /// call.  O(1) when unchanged; O(n + m) after churn.
  void ensure(graph::GraphView g) {
    if (built_ && version_ == g.topology_version()) return;
    rebuild(g);
  }

  /// Size the per-shard spill lanes and multiset scratch.  Allocation happens
  /// only when the shard count changes (executors call this every round).
  void ensure_shards(std::size_t shards) {
    if (lanes_.size() < shards) lanes_.resize(shards);
    if (scratch_.size() < shards) scratch_.resize(shards);
  }

  /// Reset the spill lane of `shard` for a new round (capacity retained).
  void begin_shard(std::size_t shard) noexcept { lanes_[shard].used = 0; }

  /// Reset sender `v` for a new round (called by v's shard before on_send):
  /// drop its broadcast slot, and clear its port headers only if v wrote
  /// ports last round — a broadcasting or silent sender left them empty.
  void reset_ports(graph::Vertex v) noexcept {
    if (mode_[v] == Mode::Ports) {
      for (std::uint32_t gp = base_[v]; gp < base_[v + 1]; ++gp) {
        headers_[gp].count = 0;
        headers_[gp].lane = kNoLane;
      }
    }
    mode_[v] = Mode::Silent;
  }

  /// Send `w` to every neighbor of `v`.  The first word of a silent sender
  /// goes into its broadcast slot; any later one is pushed onto every port.
  void broadcast(graph::Vertex v, std::size_t shard, Word w) {
    if (mode_[v] == Mode::Silent) {
      slot_[v] = w;
      mode_[v] = Mode::Slot;
      return;
    }
    expand_slot(v);
    for (std::uint32_t gp = base_[v]; gp < base_[v + 1]; ++gp) push(gp, shard, w);
  }

  /// Switch sender `v` to per-port storage for the rest of the round: copy
  /// its broadcast slot word (if any) into every port.  Called before any
  /// per-port write of v — a directed send, a second broadcast word, or a
  /// channel hook — so push / words_mutable / clear_port see v's real ports.
  void expand_slot(graph::Vertex v) noexcept {
    if (mode_[v] == Mode::Slot) {
      for (std::uint32_t gp = base_[v]; gp < base_[v + 1]; ++gp) {
        inline_[gp * kInline] = slot_[v];
        headers_[gp].count = 1;  // reset left the port empty and inline
      }
    }
    mode_[v] = Mode::Ports;
  }

  /// Append one word to the message at global port `gp`, spilling into
  /// `shard`'s lane when the inline slot is full.  The port's sender must
  /// already be expanded (expand_slot).
  void push(std::uint32_t gp, std::size_t shard, Word w) {
    Port& h = headers_[gp];
    if (h.lane == kNoLane) {
      if (h.count < kInline) {
        inline_[gp * kInline + h.count++] = w;
        return;
      }
      spill(gp, shard);
    } else if (h.count == h.cap) {
      grow(gp, shard);
    }
    Port& hh = headers_[gp];  // spill/grow rewrote the header
    lanes_[hh.lane].buf[hh.begin + hh.count++] = w;
  }

  /// The words stored at global port `gp` this round (always contiguous).
  /// Raw port storage: empty for a sender whose word sits in its broadcast
  /// slot — readers that know the sender use words_from.
  [[nodiscard]] std::span<const Word> words(std::uint32_t gp) const noexcept {
    const Port& h = headers_[gp];
    if (h.count == 0) return {};
    const Word* p = h.lane == kNoLane ? &inline_[gp * kInline]
                                      : &lanes_[h.lane].buf[h.begin];
    return {p, h.count};
  }

  /// The words sender `u` queued at its global port `gp` this round: its
  /// broadcast slot when it has one, else the port's own words.
  [[nodiscard]] std::span<const Word> words_from(graph::Vertex u,
                                                 std::uint32_t gp) const noexcept {
    if (mode_[u] == Mode::Slot) return {&slot_[u], 1};
    return words(gp);
  }

  /// Sender `u`'s broadcast slot word, or null if its words are in ports.
  [[nodiscard]] const Word* slot(graph::Vertex u) const noexcept {
    return mode_[u] == Mode::Slot ? &slot_[u] : nullptr;
  }

  // --- Channel-fault mutation (runtime::ChannelHook implementations) -------
  // A hook runs inside the send phase on the shard that owns the sender, so
  // these touch only state that shard already owns; see transport.hpp.

  /// Mutable view of the words at `gp` (corrupt-in-place).
  [[nodiscard]] std::span<Word> words_mutable(std::uint32_t gp) noexcept {
    const Port& h = headers_[gp];
    if (h.count == 0) return {};
    Word* p = h.lane == kNoLane ? &inline_[gp * kInline]
                                : &lanes_[h.lane].buf[h.begin];
    return {p, h.count};
  }

  /// Drop everything queued at `gp` this round.  The spill run (if any) stays
  /// accounted in its lane until the next round's reset — capacity, not
  /// contents, so nothing leaks.
  void clear_port(std::uint32_t gp) noexcept {
    headers_[gp].count = 0;
    headers_[gp].lane = kNoLane;
  }

  /// Grow lane `shard` to at least `words` total capacity up front, so a
  /// channel hook's in-round pushes (duplicate / delayed arrivals) never
  /// reallocate mid-phase.  No-op once the lane is big enough — the
  /// steady-state guarantee of test_alloc_hook.
  void reserve_lane(std::size_t shard, std::size_t words) {
    if (lanes_[shard].buf.size() < words) lanes_[shard].buf.resize(words);
  }

  [[nodiscard]] std::size_t n() const noexcept { return base_.size() - 1; }
  [[nodiscard]] std::uint32_t base(graph::Vertex v) const noexcept {
    return base_[v];
  }
  [[nodiscard]] std::uint32_t ports(graph::Vertex v) const noexcept {
    return base_[v + 1] - base_[v];
  }
  /// Reverse-port table slice for receiver `v`: entry p is the global port
  /// of v at its p-th neighbor.
  [[nodiscard]] const std::uint32_t* peer_ports(graph::Vertex v) const noexcept {
    return peer_port_.data() + base_[v];
  }

  [[nodiscard]] std::vector<std::uint64_t>& scratch(std::size_t shard) noexcept {
    return scratch_[shard];
  }

  [[nodiscard]] OutboxRef outbox(graph::Vertex v, std::size_t shard) noexcept;
  /// Inbox of receiver `v`; `nbrs` is v's current sorted neighbor list (the
  /// senders, in port order), which the view needs to find their slots.
  [[nodiscard]] InboxRef inbox(graph::Vertex v,
                               std::span<const graph::Vertex> nbrs,
                               std::size_t shard) noexcept;

  // --- Introspection (tests, allocation accounting) ------------------------

  /// Words currently held in spill runs (partition-independent: a port's
  /// contents never depend on the shard layout).
  [[nodiscard]] std::uint64_t spilled_words() const noexcept {
    std::uint64_t total = 0;
    for (const Port& h : headers_)
      if (h.lane != kNoLane) total += h.count;
    return total;
  }
  /// Sum of lane run capacities in use this round (partition-*dependent*;
  /// deterministic for a fixed shard count).
  [[nodiscard]] std::uint64_t lane_words_used() const noexcept {
    std::uint64_t total = 0;
    for (const Lane& l : lanes_) total += l.used;
    return total;
  }
  /// Heap capacity currently reserved across all spill lanes.
  [[nodiscard]] std::uint64_t lane_capacity() const noexcept {
    std::uint64_t total = 0;
    for (const Lane& l : lanes_) total += l.buf.size();
    return total;
  }
  [[nodiscard]] std::uint64_t topology_version() const noexcept {
    return version_;
  }

 private:
  struct Port {
    std::uint32_t count = 0;
    std::uint32_t lane = kNoLane;  ///< kNoLane = inline storage
    std::uint32_t begin = 0;       ///< run offset in lanes_[lane].buf
    std::uint32_t cap = 0;         ///< run capacity (spilled ports only)
  };
  struct Lane {
    std::vector<Word> buf;  ///< grows geometrically, never shrinks
    std::size_t used = 0;   ///< high-water mark of this round's runs
  };
  /// Where a sender's words live this round.  Ports is sticky until the next
  /// reset, which is what lets reset_ports skip senders that never wrote one.
  enum class Mode : std::uint8_t { Silent, Slot, Ports };

  void rebuild(graph::GraphView g);
  void spill(std::uint32_t gp, std::size_t shard);  // inline slot -> lane run
  void grow(std::uint32_t gp, std::size_t shard);   // double a full run

  std::vector<Word> slot_;                ///< broadcast slot, n entries
  std::vector<Mode> mode_;                ///< per-sender storage mode, n
  std::vector<std::uint32_t> base_;       ///< n+1 CSR port offsets
  std::vector<std::uint32_t> peer_port_;  ///< reverse-port map, 2m entries
  std::vector<Port> headers_;             ///< per-port state, 2m entries
  std::vector<Word> inline_;              ///< kInline words per port
  std::vector<Lane> lanes_;               ///< one spill lane per shard
  std::vector<std::vector<std::uint64_t>> scratch_;  ///< multiset, per shard
  std::uint64_t version_ = 0;
  bool built_ = false;
};

/// Non-owning view of one vertex's outgoing ports for one round.  Ports are
/// indices into the vertex's (sorted) neighbor list.  Valid only inside the
/// on_send callback it was created for.
class OutboxRef {
 public:
  OutboxRef(MailboxArena& arena, graph::Vertex v, std::size_t shard) noexcept
      : arena_(&arena),
        v_(v),
        base_(arena.base(v)),
        ports_(arena.ports(v)),
        shard_(shard) {}

  /// Append one word to the message for the neighbor at `port`.  Throws
  /// std::out_of_range for a port past the vertex's degree: the arena is
  /// shared, so the write would land in another vertex's slot.
  void send(std::size_t port, Word w) {
    if (port >= ports_) throw std::out_of_range("OutboxRef::send: port out of range");
    arena_->expand_slot(v_);
    arena_->push(base_ + static_cast<std::uint32_t>(port), shard_, w);
    broadcast_only_ = false;
  }

  /// Send the same single word to every neighbor.  This is the only
  /// primitive available in the SET-LOCAL model.  The first word of the
  /// round is stored once, in the sender's broadcast slot.
  void broadcast(Word w) {
    if (ports_ != 0) arena_->broadcast(v_, shard_, w);
  }

  [[nodiscard]] std::size_t ports() const noexcept { return ports_; }
  [[nodiscard]] std::span<const Word> at(std::size_t port) const {
    return arena_->words_from(v_, base_ + static_cast<std::uint32_t>(port));
  }
  /// The one word every port carries, if this round is a single broadcast
  /// held in the slot; null when the words are stored per port.
  [[nodiscard]] const Word* slot() const noexcept { return arena_->slot(v_); }
  [[nodiscard]] bool used_broadcast_only() const noexcept {
    return broadcast_only_;
  }

 private:
  MailboxArena* arena_;
  graph::Vertex v_;
  std::uint32_t base_;
  std::uint32_t ports_;
  std::size_t shard_;
  bool broadcast_only_ = true;  ///< no directed send() has occurred
};

/// Non-owning view of one vertex's incoming ports for one round: reads the
/// senders' words in place — a sender's broadcast slot, found through the
/// receiver's neighbor list, or its port through the arena's reverse-port
/// map (delivery copies nothing).  Valid only inside the on_receive callback
/// it was created for — after the adversary churns topology between rounds
/// the arena rebuilds its port tables, so views never see stale ports.
class InboxRef {
 public:
  InboxRef(const MailboxArena& arena, const std::uint32_t* peer_ports,
           std::span<const graph::Vertex> nbrs,
           std::vector<std::uint64_t>& scratch) noexcept
      : arena_(&arena), peer_(peer_ports), nbrs_(nbrs), scratch_(&scratch) {}

  [[nodiscard]] std::size_t ports() const noexcept { return nbrs_.size(); }

  /// Message from the neighbor at `port` (empty if it sent nothing).
  [[nodiscard]] std::span<const Word> from_port(std::size_t port) const {
    assert(port < nbrs_.size());
    return arena_->words_from(nbrs_[port], peer_[port]);
  }

  /// First word from `port`, or `fallback` if none arrived.
  [[nodiscard]] std::uint64_t value_or(std::size_t port,
                                       std::uint64_t fallback) const {
    const auto w = from_port(port);
    return w.empty() ? fallback : w.front().value;
  }

  /// SET-LOCAL view: the sorted multiset of first-word values, stripped of
  /// sender identity.  Algorithms that only use this view are directly
  /// executable in the SET-LOCAL model (Section 1.2.3 of the paper).  The
  /// values are materialized into the shard's reusable scratch buffer, so
  /// the returned span is invalidated by the next multiset() call on this
  /// shard (i.e. by the next vertex's on_receive).
  [[nodiscard]] std::span<const std::uint64_t> multiset() const {
    auto& vals = *scratch_;
    vals.clear();
    for (std::size_t p = 0; p < nbrs_.size(); ++p) {
      const auto w = arena_->words_from(nbrs_[p], peer_[p]);
      if (!w.empty()) vals.push_back(w.front().value);
    }
    std::sort(vals.begin(), vals.end());
    return vals;
  }

 private:
  const MailboxArena* arena_;
  const std::uint32_t* peer_;
  std::span<const graph::Vertex> nbrs_;
  std::vector<std::uint64_t>* scratch_;
};

inline OutboxRef MailboxArena::outbox(graph::Vertex v,
                                      std::size_t shard) noexcept {
  return OutboxRef(*this, v, shard);
}

inline InboxRef MailboxArena::inbox(graph::Vertex v,
                                    std::span<const graph::Vertex> nbrs,
                                    std::size_t shard) noexcept {
  assert(nbrs.size() == ports(v));
  return InboxRef(*this, peer_ports(v), nbrs, scratch_[shard]);
}

}  // namespace agc::runtime
