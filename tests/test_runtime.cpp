// Runtime substrate: mailboxes, transports (model enforcement + accounting),
// the round engine (delivery, dynamics, RAM), and the locally-iterative
// harness.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "agc/exec/executor.hpp"
#include "agc/graph/generators.hpp"
#include "agc/runtime/engine.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/runtime/iterative.hpp"

namespace {

using namespace agc;
using namespace agc::runtime;

TEST(Message, WidthOf) {
  EXPECT_EQ(width_of(0), 1u);
  EXPECT_EQ(width_of(1), 1u);
  EXPECT_EQ(width_of(2), 2u);
  EXPECT_EQ(width_of(255), 8u);
  EXPECT_EQ(width_of(256), 9u);
  EXPECT_EQ(width_of(~0ULL), 64u);
}

/// Single-shard arena around a graph, for direct Outbox/Inbox view tests.
struct ArenaHarness {
  explicit ArenaHarness(graph::Graph graph) : g(std::move(graph)) {
    arena.ensure(g);
    arena.ensure_shards(1);
    arena.begin_shard(0);
    for (graph::Vertex v = 0; v < g.n(); ++v) arena.reset_ports(v);
  }
  [[nodiscard]] OutboxRef outbox(graph::Vertex v) { return arena.outbox(v, 0); }
  [[nodiscard]] InboxRef inbox(graph::Vertex v) {
    return arena.inbox(v, g.neighbors(v), 0);
  }

  graph::Graph g;
  MailboxArena arena;
};

TEST(Message, InboxMultisetSortedAnonymous) {
  // Star: 0 is adjacent to {1, 2, 3}; leaves 1 and 3 send, 2 stays silent.
  ArenaHarness h(graph::Graph::from_edges(
      4, std::vector<graph::Edge>{{0, 1}, {0, 2}, {0, 3}}));
  h.outbox(1).send(0, {42, 8});
  h.outbox(3).send(0, {7, 8});
  const auto in = h.inbox(0);
  const auto ms = in.multiset();
  EXPECT_EQ(std::vector<std::uint64_t>(ms.begin(), ms.end()),
            (std::vector<std::uint64_t>{7, 42}));
  EXPECT_EQ(in.value_or(1, 99), 99u);  // port 1 = silent neighbor 2
}

TEST(TransportTest, CongestCapEnforced) {
  const Transport t(Model::CONGEST, 8);
  ArenaHarness h(graph::path(3));  // vertex 1 has two ports
  auto out = h.outbox(1);
  out.send(0, {200, 8});
  EXPECT_NO_THROW(t.validate(out));
  ArenaHarness hw(graph::path(3));
  auto wide = hw.outbox(1);
  wide.send(0, {512, 10});
  EXPECT_THROW(t.validate(wide), std::logic_error);
  // Multiple words on one port count together.
  ArenaHarness hm(graph::path(2));
  auto multi = hm.outbox(0);
  multi.send(0, {1, 5});
  multi.send(0, {1, 5});
  EXPECT_THROW(t.validate(multi), std::logic_error);
}

TEST(TransportTest, DeclaredWidthMustCoverValue) {
  const Transport t(Model::LOCAL);
  ArenaHarness h(graph::path(2));
  auto out = h.outbox(0);
  out.send(0, {256, 8});  // 256 needs 9 bits
  EXPECT_THROW(t.validate(out), std::logic_error);
}

TEST(TransportTest, SetLocalForbidsDirectedSends) {
  const Transport t(Model::SET_LOCAL);
  ArenaHarness h(graph::path(3));
  auto dir = h.outbox(1);
  dir.send(0, {1, 1});
  EXPECT_THROW(t.validate(dir), std::logic_error);
  ArenaHarness hb(graph::path(3));
  auto bc = hb.outbox(1);
  bc.broadcast({1, 1});
  EXPECT_NO_THROW(t.validate(bc));
}

TEST(TransportTest, BitModelOneBit) {
  const Transport t(Model::BIT);
  ArenaHarness h(graph::path(2));
  auto out = h.outbox(0);
  out.send(0, {1, 1});
  EXPECT_NO_THROW(t.validate(out));
  ArenaHarness ht(graph::path(2));
  auto two = ht.outbox(0);
  two.send(0, {2, 2});
  EXPECT_THROW(t.validate(two), std::logic_error);
}

/// Echo program: broadcasts its id, records the multiset it hears.
class EchoProgram final : public VertexProgram {
 public:
  void on_send(const VertexEnv& env, OutboxRef& out) override {
    out.broadcast({env.padded_id, width_of(env.id_space - 1)});
  }
  void on_receive(const VertexEnv&, const InboxRef& in) override {
    const auto ms = in.multiset();  // scratch-backed: copy out of the view
    heard.assign(ms.begin(), ms.end());
  }
  std::vector<std::uint64_t> heard;
};

TEST(EngineTest, DeliversToCorrectPorts) {
  const auto g = graph::path(4);  // 0-1-2-3
  Engine engine(g, Transport(Model::LOCAL));
  engine.install([](const VertexEnv&) { return std::make_unique<EchoProgram>(); });
  engine.step();
  auto& p1 = dynamic_cast<EchoProgram&>(engine.program(1));
  EXPECT_EQ(p1.heard, (std::vector<std::uint64_t>{0, 2}));
  auto& p0 = dynamic_cast<EchoProgram&>(engine.program(0));
  EXPECT_EQ(p0.heard, (std::vector<std::uint64_t>{1}));
}

TEST(EngineTest, MetricsCountMessagesAndBits) {
  const auto g = graph::cycle(5);
  Engine engine(g, Transport(Model::LOCAL));
  engine.install([](const VertexEnv&) { return std::make_unique<EchoProgram>(); });
  engine.step();
  engine.step();
  // 5 vertices x 2 neighbors x 2 rounds directed messages.
  EXPECT_EQ(engine.metrics().messages, 20u);
  EXPECT_EQ(engine.metrics().rounds, 2u);
  EXPECT_EQ(engine.metrics().total_bits, 20u * width_of(4));
  // Each directed edge carried exactly 2 messages of width_of(4) bits.
  EXPECT_EQ(engine.metrics().max_edge_bits, 2 * width_of(4));
}

TEST(EngineTest, IdSpaceFactor) {
  EngineOptions opts;
  opts.id_space_factor = 1000;
  Engine engine(graph::path(3), Transport(Model::LOCAL), opts);
  EXPECT_EQ(engine.env(0).id_space, 3000u);
  EXPECT_EQ(engine.env(2).padded_id, 2u);
}

TEST(EngineTest, DynamicTopology) {
  Engine engine(graph::path(4), Transport(Model::LOCAL));
  engine.install([](const VertexEnv&) { return std::make_unique<EchoProgram>(); });
  EXPECT_TRUE(engine.add_edge(0, 3));
  EXPECT_FALSE(engine.add_edge(0, 1));
  engine.step();
  auto& p0 = dynamic_cast<EchoProgram&>(engine.program(0));
  EXPECT_EQ(p0.heard, (std::vector<std::uint64_t>{1, 3}));

  const auto v = engine.add_vertex();
  EXPECT_EQ(v, 4u);
  EXPECT_TRUE(engine.add_edge(v, 0));
  engine.step();
  EXPECT_EQ(p0.heard.size(), 3u);

  engine.reset_vertex(0);
  EXPECT_EQ(engine.graph().degree(0), 0u);
}

/// Program with one RAM word, for adversary tests.
class RamProgram final : public VertexProgram {
 public:
  void on_send(const VertexEnv&, OutboxRef& out) override {
    out.broadcast({word, 64});
  }
  void on_receive(const VertexEnv&, const InboxRef&) override {}
  std::span<std::uint64_t> ram() override { return {&word, 1}; }
  std::uint64_t word = 7;
};

TEST(EngineTest, RamCorruption) {
  Engine engine(graph::path(3), Transport(Model::LOCAL));
  engine.install([](const VertexEnv&) { return std::make_unique<RamProgram>(); });
  engine.corrupt_ram(1, 0, 12345);
  EXPECT_EQ(engine.ram(1)[0], 12345u);
  engine.corrupt_ram(1, 5, 0);  // out of range: no-op
  EXPECT_EQ(engine.ram(1).size(), 1u);
}

TEST(AdversaryTest, EventsAreCountedAndCapped) {
  Engine engine(graph::random_bounded_degree(50, 5, 100, 3),
                Transport(Model::LOCAL));
  engine.install([](const VertexEnv&) { return std::make_unique<RamProgram>(); });
  Adversary adv(1);
  adv.corrupt_random(engine, 10, 100);
  EXPECT_EQ(adv.events(), 10u);
  adv.churn_edges(engine, 10, 5, 5);
  EXPECT_LE(engine.graph().max_degree(), 5u);
  adv.churn_vertices(engine, 3, 2, 5);
  EXPECT_LE(engine.graph().max_degree(), 5u);
}

/// Rule: decrement to zero (needs no neighbor info); final at 0.
class CountdownRule final : public IterativeRule {
 public:
  Color step(Color own, std::span<const Color>) const override {
    return own == 0 ? 0 : own - 1;
  }
  bool is_final(Color c) const override { return c == 0; }
  std::uint32_t color_bits() const override { return 16; }
};

TEST(IterativeHarness, RunsUntilAllFinal) {
  const auto g = graph::cycle(6);
  CountdownRule rule;
  IterativeOptions opts;
  opts.check_proper_each_round = false;
  auto res = run_locally_iterative(g, {5, 4, 3, 2, 1, 0}, rule, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.rounds, 5u);
  EXPECT_EQ(res.colors, (std::vector<Color>(6, 0)));
}

TEST(IterativeHarness, DetectsImproperIntermediate) {
  const auto g = graph::path(2);
  CountdownRule rule;
  IterativeOptions opts;  // properness checking on
  auto res = run_locally_iterative(g, {2, 1}, rule, opts);
  // Colors pass through {1,0} then land on {0,0}: improper at the end.
  EXPECT_FALSE(res.proper_each_round);
}

TEST(IterativeHarness, MaxRoundsCap) {
  class NeverRule final : public IterativeRule {
   public:
    Color step(Color own, std::span<const Color>) const override { return own ^ 1; }
    bool is_final(Color) const override { return false; }
    std::uint32_t color_bits() const override { return 2; }
  };
  const auto g = graph::path(3);
  NeverRule rule;
  IterativeOptions opts;
  opts.max_rounds = 10;
  opts.check_proper_each_round = false;
  auto res = run_locally_iterative(g, {0, 1, 0}, rule, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.rounds, 10u);
}

// --- Per-edge bit ledger ----------------------------------------------------

TEST(EdgeBitLedgerTest, PortHintFallsBackToScanOnMismatch) {
  EdgeBitLedger ledger;
  ledger.ensure(1);
  // Receiver 0's neighbors are {3, 5}; 3 (port 0) is silent at first, so 5
  // (port 1) lands in bucket entry 0 and every later lookup mismatches.
  EXPECT_EQ(ledger.add(5, 0, 1, 4), 4u);
  EXPECT_EQ(ledger.add(3, 0, 0, 2), 2u);
  EXPECT_EQ(ledger.add(5, 0, 1, 4), 8u);
  EXPECT_EQ(ledger.add(3, 0, 0, 2), 4u);
  // A port past the bucket (a neighbor added later) also scans, then appends.
  EXPECT_EQ(ledger.add(9, 0, 7, 1), 1u);
  EXPECT_EQ(ledger.get(5, 0), 8u);
  EXPECT_EQ(ledger.get(3, 0), 4u);
  EXPECT_EQ(ledger.get(9, 0), 1u);
  EXPECT_EQ(ledger.get(0, 5), 0u);
}

/// Bits `v` puts on the port to its neighbor at `port` in `round` (0 =
/// nothing): silent in round 0, then a per-vertex cycle of silence, a
/// broadcast, directed sends on every other port, and a broadcast followed
/// by a directed send.
std::uint64_t scripted_bits(graph::Vertex v, std::uint64_t round,
                            std::size_t port) {
  if (round == 0) return 0;
  switch ((v + round) % 4) {
    case 1: return 8;
    case 2: return (port + round) % 2 == 0 ? 5 : 0;
    case 3: return port == 0 ? 1 + 3 : 1;
    default: return 0;
  }
}

class ScriptedSender final : public VertexProgram {
 public:
  void on_send(const VertexEnv& env, OutboxRef& out) override {
    switch ((env.id + env.round) % 4) {
      case 1:
        if (env.round != 0) out.broadcast({env.id % 256, 8});
        break;
      case 2:
        if (env.round == 0) break;
        for (std::size_t p = 0; p < out.ports(); ++p) {
          if ((p + env.round) % 2 == 0) out.send(p, {env.id % 32, 5});
        }
        break;
      case 3:
        if (env.round == 0 || out.ports() == 0) break;
        out.broadcast({env.round % 2, 1});
        out.send(0, {6, 3});
        break;
      default:
        break;
    }
  }
  void on_receive(const VertexEnv&, const InboxRef&) override {}
};

TEST(EdgeBitLedgerTest, MetricsEqualPerEdgeOracleUnderChurn) {
  // Senders silent in round 0 and silent again every fourth round, with
  // edges added and removed between rounds, so receivers' buckets are out of
  // port order and the ledger's fallback path runs.  messages, total_bits
  // and max_edge_bits must equal a (sender, receiver) -> bits map replayed
  // from the script over the topology of each round.
  for (const Model model : {Model::LOCAL, Model::CONGEST}) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      Engine engine(graph::random_regular(40, 6, 3), Transport(model, 8));
      engine.set_executor(exec::make_executor(threads));
      engine.install(
          [](const VertexEnv&) { return std::make_unique<ScriptedSender>(); });
      std::map<std::pair<graph::Vertex, graph::Vertex>, std::uint64_t> oracle;
      std::uint64_t messages = 0;
      std::uint64_t total_bits = 0;
      graph::Rng rng(17);
      for (std::uint64_t round = 0; round < 24; ++round) {
        const auto g = engine.graph();
        for (graph::Vertex u = 0; u < g.n(); ++u) {
          const auto nbrs = g.neighbors(u);
          for (std::size_t p = 0; p < nbrs.size(); ++p) {
            const std::uint64_t bits = scripted_bits(u, round, p);
            if (bits == 0) continue;
            ++messages;
            total_bits += bits;
            oracle[{u, nbrs[p]}] += bits;
          }
        }
        engine.step();

        const auto n = static_cast<graph::Vertex>(engine.graph().n());
        const auto a = static_cast<graph::Vertex>(rng.below(n));
        const auto b = static_cast<graph::Vertex>(rng.below(n));
        if (round % 2 == 0) {
          engine.add_edge(a, b);
        } else if (engine.graph().degree(a) != 0) {
          engine.remove_edge(a, engine.graph().neighbors(a)[0]);
        }
      }
      std::uint64_t max_edge_bits = 0;
      for (const auto& [edge, bits] : oracle) {
        max_edge_bits = std::max(max_edge_bits, bits);
      }
      const Metrics& m = engine.metrics();
      SCOPED_TRACE(to_string(model) + " threads=" + std::to_string(threads));
      EXPECT_EQ(m.messages, messages);
      EXPECT_EQ(m.total_bits, total_bits);
      EXPECT_EQ(m.max_edge_bits, max_edge_bits);
    }
  }
}

}  // namespace
