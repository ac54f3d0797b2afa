// MailboxArena unit tests: CSR rebuild on topology change, the spill lane,
// and the dynamic-topology regression the arena design must not break —
// after Engine::add_edge / remove_edge / add_vertex / reset_vertex between
// rounds, port counts change, and a mailbox view built from stale port
// tables would read the wrong sender's words (or out of bounds).  The churn
// tests below mutate topology before EVERY round under SET-LOCAL and assert
// each vertex hears exactly its current neighborhood.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "agc/exec/executor.hpp"
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
  const auto in = h.arena.inbox(1, 0);
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
