// MailboxArena unit tests: CSR rebuild on topology change, the spill lane,
// the per-sender broadcast slot (expansion into ports, lazy reset, reads,
// validation and channel faults), and the dynamic-topology regression the
// arena design must not break — after Engine::add_edge / remove_edge / add_vertex / reset_vertex between
// rounds, port counts change, and a mailbox view built from stale port
// tables would read the wrong sender's words (or out of bounds).  The churn
// tests below mutate topology before EVERY round under SET-LOCAL and assert
// each vertex hears exactly its current neighborhood.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "agc/exec/executor.hpp"
#include "agc/faultlab/channel.hpp"
#include "agc/graph/generators.hpp"
#include "agc/runtime/engine.hpp"

namespace {

using namespace agc;
using namespace agc::runtime;

/// Single-shard arena over a graph for direct view-level tests.
struct ArenaHarness {
  explicit ArenaHarness(graph::Graph graph) : g(std::move(graph)) {
    arena.ensure(g);
    arena.ensure_shards(1);
    arena.begin_shard(0);
    for (graph::Vertex v = 0; v < g.n(); ++v) arena.reset_ports(v);
  }
  graph::Graph g;
  MailboxArena arena;
};

TEST(MailboxArena, EnsureIsNoOpUntilTopologyChanges) {
  auto g = graph::cycle(8);
  MailboxArena arena;
  arena.ensure(g);
  const auto v0 = arena.topology_version();
  arena.ensure(g);  // same version: O(1) no-op
  EXPECT_EQ(arena.topology_version(), v0);

  ASSERT_TRUE(g.add_edge(0, 4));
  EXPECT_NE(g.topology_version(), v0);
  arena.ensure(g);
  EXPECT_EQ(arena.topology_version(), g.topology_version());
  EXPECT_EQ(arena.ports(0), 3u);
}

TEST(MailboxArena, InlineThenSpillKeepsWordsContiguousAndOrdered) {
  ArenaHarness h(graph::path(2));
  auto out = h.arena.outbox(0, 0);
  for (std::uint64_t i = 0; i < 6; ++i) {
    out.send(0, {i, 8});
  }
  const auto words = h.arena.words(h.arena.base(0));
  ASSERT_EQ(words.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(words[i].value, i);
  // One inline word, five spilled.
  EXPECT_EQ(h.arena.spilled_words(), 6u);

  // The receiver reads the same contiguous run through its inbox view.
  const auto in = h.arena.inbox(1, h.g.neighbors(1), 0);
  const auto got = in.from_port(0);
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got[5].value, 5u);
}

TEST(MailboxArena, OutboxRejectsPortPastDegree) {
  // Ports are contiguous in the shared arena: vertex 0's port 1 would be
  // vertex 1's port 0.  The send must fail instead of landing there.
  ArenaHarness h(graph::path(3));
  auto out = h.arena.outbox(0, 0);
  EXPECT_THROW(out.send(1, {7, 8}), std::out_of_range);
  EXPECT_TRUE(h.arena.words(h.arena.base(1)).empty());
  out.send(0, {7, 8});
  EXPECT_EQ(h.arena.words(h.arena.base(0)).size(), 1u);
}

TEST(MailboxArena, InterleavedSpillsOfTwoPortsStayIntact) {
  // Vertex 1 of a path(3) has two ports; alternate pushes so both ports
  // outgrow their inline slot and relocate in the same lane.
  ArenaHarness h(graph::path(3));
  auto out = h.arena.outbox(1, 0);
  for (std::uint64_t i = 0; i < 5; ++i) {
    out.send(0, {10 + i, 8});
    out.send(1, {20 + i, 8});
  }
  for (std::size_t port = 0; port < 2; ++port) {
    const auto words = out.at(port);
    ASSERT_EQ(words.size(), 5u) << "port " << port;
    for (std::uint64_t i = 0; i < 5; ++i) {
      EXPECT_EQ(words[i].value, (port == 0 ? 10 : 20) + i);
    }
  }
  EXPECT_EQ(h.arena.spilled_words(), 10u);
}

TEST(MailboxArena, RoundResetKeepsLaneCapacity) {
  ArenaHarness h(graph::path(2));
  auto out = h.arena.outbox(0, 0);
  for (std::uint64_t i = 0; i < 40; ++i) out.send(0, {i, 8});
  const auto cap = h.arena.lane_capacity();
  EXPECT_GT(cap, 0u);

  // Next round: reset, then refill — capacity must be reused, not regrown.
  h.arena.begin_shard(0);
  h.arena.reset_ports(0);
  h.arena.reset_ports(1);
  EXPECT_EQ(h.arena.words(h.arena.base(0)).size(), 0u);
  auto out2 = h.arena.outbox(0, 0);
  for (std::uint64_t i = 0; i < 40; ++i) out2.send(0, {i, 8});
  EXPECT_EQ(h.arena.lane_capacity(), cap);
  EXPECT_EQ(h.arena.words(h.arena.base(0)).size(), 40u);
}

// --- Broadcast slot ---------------------------------------------------------

/// Star with center 0 and leaves 1..k: the center has k ports, leaf i hears
/// the center at its only port 0.
graph::Graph star(std::size_t k) {
  std::vector<graph::Edge> edges;
  for (graph::Vertex u = 1; u <= k; ++u) edges.emplace_back(0, u);
  return graph::Graph::from_edges(k + 1, edges);
}

std::vector<Word> as_vector(std::span<const Word> words) {
  return {words.begin(), words.end()};
}

TEST(BroadcastSlot, BroadcastTouchesNoPortUntilExpanded) {
  ArenaHarness h(star(4));
  auto out = h.arena.outbox(0, 0);
  out.broadcast({9, 4});
  ASSERT_NE(out.slot(), nullptr);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(h.arena.words(h.arena.base(0) + p).empty()) << "port " << p;
    EXPECT_EQ(as_vector(out.at(p)), (std::vector<Word>{{9, 4}}));
  }
  h.arena.expand_slot(0);
  EXPECT_EQ(out.slot(), nullptr);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(as_vector(h.arena.words(h.arena.base(0) + p)),
              (std::vector<Word>{{9, 4}}));
  }
}

TEST(BroadcastSlot, BroadcastThenSendAppendsOnThatPortOnly) {
  ArenaHarness h(star(4));
  auto out = h.arena.outbox(0, 0);
  out.broadcast({5, 8});
  out.send(0, {6, 8});
  EXPECT_EQ(out.slot(), nullptr);
  EXPECT_EQ(as_vector(out.at(0)), (std::vector<Word>{{5, 8}, {6, 8}}));
  for (std::size_t p = 1; p < 4; ++p) {
    EXPECT_EQ(as_vector(out.at(p)), (std::vector<Word>{{5, 8}})) << "port " << p;
  }
  EXPECT_NO_THROW(Transport(Model::LOCAL).validate(out));
  // The leaves read the same words through their inboxes.
  EXPECT_EQ(as_vector(h.arena.inbox(1, h.g.neighbors(1), 0).from_port(0)),
            (std::vector<Word>{{5, 8}, {6, 8}}));
  EXPECT_EQ(as_vector(h.arena.inbox(2, h.g.neighbors(2), 0).from_port(0)),
            (std::vector<Word>{{5, 8}}));
}

TEST(BroadcastSlot, TwoBroadcastsPutTwoWordsOnEveryPort) {
  ArenaHarness h(star(3));
  auto out = h.arena.outbox(0, 0);
  out.broadcast({1, 2});
  out.broadcast({2, 2});
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(as_vector(out.at(p)), (std::vector<Word>{{1, 2}, {2, 2}}))
        << "port " << p;
  }
  EXPECT_EQ(h.arena.spilled_words(), 6u);
  EXPECT_TRUE(out.used_broadcast_only());
}

TEST(BroadcastSlot, SetLocalBroadcastThenSendIsRejected) {
  ArenaHarness h(star(3));
  auto out = h.arena.outbox(0, 0);
  out.broadcast({1, 1});
  EXPECT_NO_THROW(Transport(Model::SET_LOCAL).validate(out));
  out.send(1, {0, 1});
  EXPECT_THROW(Transport(Model::SET_LOCAL).validate(out), std::logic_error);
}

TEST(BroadcastSlot, SlotWordIsValidatedOnce) {
  const Transport congest(Model::CONGEST, 8);
  ArenaHarness h(star(3));
  auto wide = h.arena.outbox(0, 0);
  wide.broadcast({1, 9});  // over the 8-bit cap
  EXPECT_THROW(congest.validate(wide), std::logic_error);
  ArenaHarness hv(star(3));
  auto lying = hv.arena.outbox(0, 0);
  lying.broadcast({256, 8});  // value needs 9 bits
  EXPECT_THROW(Transport(Model::LOCAL).validate(lying), std::logic_error);
}

TEST(BroadcastSlot, LazyResetClearsOnlySendersThatWrotePorts) {
  ArenaHarness h(graph::path(3));
  h.arena.outbox(0, 0).send(0, {3, 2});  // ports
  h.arena.outbox(1, 0).broadcast({1, 1});  // slot
  // Next round: 0 broadcasts, 1 stays silent, 2 sends on its port.
  for (graph::Vertex v = 0; v < 3; ++v) h.arena.reset_ports(v);
  h.arena.outbox(0, 0).broadcast({2, 2});
  h.arena.outbox(2, 0).send(0, {1, 1});
  EXPECT_TRUE(h.arena.words(h.arena.base(0)).empty());  // in the slot
  EXPECT_EQ(h.arena.slot(1), nullptr);
  EXPECT_TRUE(h.arena.words(h.arena.base(1)).empty());
  EXPECT_TRUE(h.arena.words(h.arena.base(1) + 1).empty());
  const auto in1 = h.arena.inbox(1, h.g.neighbors(1), 0);
  EXPECT_EQ(in1.value_or(0, 99), 2u);
  EXPECT_EQ(in1.value_or(1, 99), 1u);
  EXPECT_EQ(h.arena.inbox(0, h.g.neighbors(0), 0).value_or(0, 99), 99u);
}

TEST(BroadcastSlot, InboxViewsEqualPerPortReads) {
  // Receiver 0 of a star hears slot senders, per-port senders and silent
  // ones.  Every view over the slot must equal the same read after the
  // slots are expanded into ports.
  ArenaHarness h(star(6));
  for (graph::Vertex u = 1; u <= 6; ++u) {
    auto out = h.arena.outbox(u, 0);
    if (u % 3 == 0) continue;                            // silent
    if (u % 3 == 1) out.broadcast({10 * u % 7, 3});      // slot
    if (u % 3 == 2) out.send(0, {u, 3});                 // port
  }
  const auto nbrs = h.g.neighbors(0);
  const auto in = h.arena.inbox(0, nbrs, 0);
  std::vector<std::vector<Word>> from_port;
  std::vector<std::uint64_t> value_or;
  for (std::size_t p = 0; p < in.ports(); ++p) {
    from_port.push_back(as_vector(in.from_port(p)));
    value_or.push_back(in.value_or(p, 77));
  }
  const auto ms = in.multiset();
  const std::vector<std::uint64_t> multiset(ms.begin(), ms.end());

  for (graph::Vertex u = 1; u <= 6; ++u) h.arena.expand_slot(u);
  const std::uint32_t* peers = h.arena.peer_ports(0);
  std::vector<std::uint64_t> want_multiset;
  for (std::size_t p = 0; p < nbrs.size(); ++p) {
    const auto words = as_vector(h.arena.words(peers[p]));
    EXPECT_EQ(from_port[p], words) << "port " << p;
    EXPECT_EQ(value_or[p], words.empty() ? 77 : words.front().value);
    if (!words.empty()) want_multiset.push_back(words.front().value);
  }
  std::sort(want_multiset.begin(), want_multiset.end());
  EXPECT_EQ(multiset, want_multiset);
  EXPECT_EQ(multiset.size(), 4u);
}

/// Records channel faults by directed edge.
class EdgeRecorder final : public FaultEventSink {
 public:
  void record(const FaultEvent& ev) override { events[{ev.u, ev.v}] = ev; }
  std::map<std::pair<graph::Vertex, graph::Vertex>, FaultEvent> events;
};

TEST(BroadcastSlot, ChannelFaultOnBroadcastChangesOnlyTheTargetedPort) {
  // Each fault kind at 50% on the center of a 16-leaf star: the sender's
  // slot is expanded before the hook runs (as RoundContext::send does), so
  // each event changes its own port and every untargeted port still
  // carries exactly the broadcast word.
  const Word sent{0b1011, 4};
  for (const FaultKind kind : {FaultKind::Drop, FaultKind::Corrupt,
                               FaultKind::Duplicate, FaultKind::Delay}) {
    ArenaHarness h(star(16));
    faultlab::ChannelFaultConfig cfg;
    cfg.seed = 11;
    (kind == FaultKind::Drop        ? cfg.drop_per_million
     : kind == FaultKind::Corrupt   ? cfg.corrupt_per_million
     : kind == FaultKind::Duplicate ? cfg.duplicate_per_million
                                    : cfg.delay_per_million) = 500'000;
    EdgeRecorder rec;
    faultlab::ChannelAdversary chan(cfg, &rec);
    chan.begin_round(h.arena, h.g, 0);
    h.arena.reserve_lane(0, 2 * 16);
    auto out = h.arena.outbox(0, 0);
    out.broadcast(sent);
    h.arena.expand_slot(0);
    chan.apply(h.arena, h.g, 0, 0, 0);

    ASSERT_GT(rec.events.size(), 0u) << to_string(kind);
    ASSERT_LT(rec.events.size(), 16u) << to_string(kind);
    const auto nbrs = h.g.neighbors(0);
    for (std::size_t p = 0; p < nbrs.size(); ++p) {
      const auto got = as_vector(out.at(p));
      const auto it = rec.events.find({0, nbrs[p]});
      if (it == rec.events.end()) {
        EXPECT_EQ(got, (std::vector<Word>{sent})) << "untargeted port " << p;
        continue;
      }
      EXPECT_EQ(it->second.kind, kind);
      switch (kind) {
        case FaultKind::Drop:
        case FaultKind::Delay:
          EXPECT_TRUE(got.empty()) << "port " << p;
          break;
        case FaultKind::Corrupt:
          EXPECT_EQ(got, (std::vector<Word>{
                             {sent.value ^ (1ULL << it->second.value), 4}}));
          break;
        default:
          EXPECT_EQ(got, (std::vector<Word>{sent, sent})) << "port " << p;
      }
    }
  }
}

/// Broadcasts its own id; records the multiset heard each round.
class IdEchoProgram final : public VertexProgram {
 public:
  void on_send(const VertexEnv& env, OutboxRef& out) override {
    out.broadcast({env.padded_id, width_of(env.id_space - 1)});
  }
  void on_receive(const VertexEnv&, const InboxRef& in) override {
    const auto ms = in.multiset();
    heard.assign(ms.begin(), ms.end());
  }
  std::vector<std::uint64_t> heard;
};

/// After each step, every vertex must have heard exactly its CURRENT sorted
/// neighbor list — a stale port table would misroute or drop messages.
void expect_heard_matches_neighbors(Engine& engine) {
  const auto& g = engine.graph();
  for (graph::Vertex v = 0; v < g.n(); ++v) {
    const auto nbrs = g.neighbors(v);
    const std::vector<std::uint64_t> want(nbrs.begin(), nbrs.end());
    const auto& heard = dynamic_cast<IdEchoProgram&>(engine.program(v)).heard;
    EXPECT_EQ(heard, want) << "vertex " << v;
  }
}

TEST(MailboxArenaChurn, TopologyChurnEveryRoundUnderSetLocal) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    Engine engine(graph::path(6), Transport(Model::SET_LOCAL));
    engine.set_executor(exec::make_executor(threads));
    engine.install(
        [](const VertexEnv&) { return std::make_unique<IdEchoProgram>(); });

    graph::Rng rng(99);
    for (int round = 0; round < 40; ++round) {
      // Mutate topology BETWEEN rounds, a different mutation class each time.
      const std::size_t n = engine.graph().n();
      switch (round % 4) {
        case 0:
          engine.add_edge(static_cast<graph::Vertex>(rng.below(n)),
                          static_cast<graph::Vertex>(rng.below(n)));
          break;
        case 1: {
          const auto edges = graph::edge_list(engine.graph());
          if (!edges.empty()) {
            const auto& e = edges[rng.below(edges.size())];
            engine.remove_edge(e.first, e.second);
          }
          break;
        }
        case 2:
          engine.reset_vertex(static_cast<graph::Vertex>(rng.below(n)));
          break;
        case 3: {
          const auto v = engine.add_vertex();
          engine.add_edge(v, static_cast<graph::Vertex>(rng.below(v)));
          break;
        }
      }
      engine.step();
      expect_heard_matches_neighbors(engine);
    }
  }
}

TEST(MailboxArenaChurn, DegreeGrowthPastInitialCapacity) {
  // A vertex whose degree only grows: every port table rebuild must track
  // it, and the SET-LOCAL multiset must never report a stale (smaller or
  // larger) neighborhood.
  Engine engine(graph::Graph(12), Transport(Model::SET_LOCAL));
  engine.install(
      [](const VertexEnv&) { return std::make_unique<IdEchoProgram>(); });
  for (graph::Vertex u = 1; u < 12; ++u) {
    ASSERT_TRUE(engine.add_edge(0, u));
    engine.step();
    const auto& heard = dynamic_cast<IdEchoProgram&>(engine.program(0)).heard;
    EXPECT_EQ(heard.size(), static_cast<std::size_t>(u));
    expect_heard_matches_neighbors(engine);
  }
}

}  // namespace
