// Streaming (O(1)-memory) Linial step against the Polynomial-based one, the
// structured generators' arithmetic, ArbAgRule unit behavior, and unit tests
// of every branch of the self-stabilizing step function.
#include <gtest/gtest.h>

#include <algorithm>

#include "agc/arb/arbag.hpp"
#include "agc/coloring/linial.hpp"
#include "agc/coloring/pipeline.hpp"
#include "agc/graph/generators.hpp"
#include "agc/math/polynomial.hpp"
#include "agc/selfstab/ss_coloring.hpp"

namespace {

using namespace agc;
using coloring::Color;

// ---------------------------------------------------------------------------
// Streaming Linial
// ---------------------------------------------------------------------------

TEST(StreamLinial, DigitEvalMatchesPolynomial) {
  graph::Rng rng(4);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::uint64_t q = math::next_prime(3 + rng.below(200));
    const std::uint64_t value = rng.below(q * q * q);
    const auto d = static_cast<std::uint32_t>(2 + rng.below(4));
    const std::uint64_t e = rng.below(q);
    const auto poly =
        math::Polynomial::from_digits(math::GF(q), value, static_cast<int>(d));
    EXPECT_EQ(coloring::eval_digit_poly(q, value, d, e), poly.eval(e))
        << "q=" << q << " value=" << value << " e=" << e;
  }
}

/// Linial's rule as the Polynomial-based mod_linial_step computes it: filter
/// the same-interval neighbors into a list, materialize their polynomials.
class MaterializedLinialRule final : public runtime::IterativeRule {
 public:
  explicit MaterializedLinialRule(coloring::LinialSchedule s) : sched_(std::move(s)) {}
  [[nodiscard]] Color step(Color own, std::span<const Color> neighbors) const override {
    const std::size_t j = sched_.interval_of(own);
    if (j == 0) return own;
    const std::uint64_t off = sched_.offset(j);
    std::vector<std::uint64_t> xs;
    for (const Color nc : neighbors) {
      if (sched_.interval_of(nc) == j) xs.push_back(nc - off);
    }
    return coloring::mod_linial_step(sched_, j, own - off, xs, {});
  }
  [[nodiscard]] bool is_final(Color c) const override {
    return c < sched_.interval_size(0);
  }
  [[nodiscard]] std::uint32_t color_bits() const override { return 64; }

 private:
  coloring::LinialSchedule sched_;
};

TEST(StreamLinial, StepMatchesMaterializedStep) {
  // Neighbors from every interval, so the in-place interval filter of
  // LinialRule::step is exercised along with the evaluation.
  coloring::LinialSchedule sched(1ULL << 24, 7);
  const coloring::LinialRule rule(sched);
  const MaterializedLinialRule materialized(sched);
  graph::Rng rng(8);
  for (std::size_t j = 1; j <= sched.stages(); ++j) {
    const std::uint64_t palette = sched.interval_size(j);
    for (int trial = 0; trial < 100; ++trial) {
      const Color own = sched.offset(j) + rng.below(palette);
      std::vector<Color> nbrs(1 + rng.below(7));
      bool clash = false;
      for (auto& nc : nbrs) {
        const std::size_t i = rng.below(sched.stages() + 1);
        nc = sched.offset(i) + rng.below(sched.interval_size(i));
        clash |= nc == own;
      }
      if (clash) continue;
      std::sort(nbrs.begin(), nbrs.end());
      EXPECT_EQ(rule.step(own, nbrs), materialized.step(own, nbrs));
    }
  }
}

TEST(StreamLinial, FullRunBitIdentical) {
  const auto g = graph::random_regular(300, 9, 33);
  const std::uint64_t ids = static_cast<std::uint64_t>(g.n()) << 16;
  coloring::LinialSchedule sched(ids, 9);
  const std::uint64_t top = sched.offset(sched.stages());

  auto init = coloring::identity_coloring(g.n());
  for (auto& c : init) c += top;

  const coloring::LinialRule streaming(sched);
  const MaterializedLinialRule materialized(sched);
  auto a = runtime::run_locally_iterative(g, init, streaming);
  auto b = runtime::run_locally_iterative(g, init, materialized);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.rounds, b.rounds);
}

// ---------------------------------------------------------------------------
// Structured generators
// ---------------------------------------------------------------------------

TEST(GeneratorsExtra, Hypercube) {
  for (std::size_t d : {1u, 3u, 6u}) {
    const auto g = graph::hypercube(d);
    EXPECT_EQ(g.n(), std::size_t{1} << d);
    EXPECT_EQ(g.m(), d * (std::size_t{1} << (d - 1)));
    EXPECT_EQ(g.max_degree(), d);
    // Bipartite: parity-of-popcount is a proper 2-coloring.
    std::vector<Color> parity(g.n());
    for (graph::Vertex v = 0; v < g.n(); ++v) {
      parity[v] = static_cast<Color>(__builtin_popcountll(v) & 1);
    }
    EXPECT_TRUE(graph::is_proper_coloring(g, parity));
  }
}

TEST(GeneratorsExtra, CompleteMultipartite) {
  const auto g = graph::complete_multipartite(4, 5);
  EXPECT_EQ(g.n(), 20u);
  EXPECT_EQ(g.max_degree(), 15u);
  EXPECT_EQ(g.m(), 4u * 3 / 2 * 5 * 5);
  // Part index is a proper 4-coloring.
  std::vector<Color> parts(g.n());
  for (graph::Vertex v = 0; v < g.n(); ++v) parts[v] = v / 5;
  EXPECT_TRUE(graph::is_proper_coloring(g, parts));
}

TEST(GeneratorsExtra, Caterpillar) {
  const auto g = graph::caterpillar(10, 4);
  EXPECT_EQ(g.n(), 50u);
  EXPECT_EQ(g.m(), 9u + 40u);
  EXPECT_EQ(graph::degeneracy(g), 1u);  // a tree
  EXPECT_EQ(g.max_degree(), 6u);        // legs + 2 spine neighbors
}

TEST(GeneratorsExtra, CycleBlowup) {
  const auto g = graph::cycle_blowup(5, 4);
  EXPECT_EQ(g.n(), 20u);
  EXPECT_EQ(g.max_degree(), 8u);  // 2 * blow
  // Odd blown-up cycles need 3 position colors: the pipeline must still land
  // within Delta+1 and be proper.
  const auto rep = coloring::color_delta_plus_one(g);
  EXPECT_TRUE(rep.proper && rep.converged);
}

TEST(GeneratorsExtra, PipelineOnNewFamilies) {
  for (const auto& g :
       {graph::hypercube(6), graph::complete_multipartite(3, 7),
        graph::caterpillar(20, 5), graph::cycle_blowup(7, 3)}) {
    const auto rep = coloring::color_delta_plus_one_exact(g);
    EXPECT_TRUE(rep.proper && rep.converged && rep.proper_each_round);
    EXPECT_LE(graph::max_color(rep.colors), g.max_degree());
  }
}

// ---------------------------------------------------------------------------
// ArbAgRule units
// ---------------------------------------------------------------------------

TEST(ArbAgRule, FrozenStatesAreFixedPoints) {
  arb::ArbAgRule rule(11, 2);
  const Color frozen = arb::ArbAgRule::pack(5, 0, 7, 11);
  EXPECT_TRUE(rule.is_final(frozen));
  EXPECT_EQ(rule.class_of(frozen), 7u);
  std::vector<Color> nbrs = {arb::ArbAgRule::pack(3, 2, 7, 11),
                             arb::ArbAgRule::pack(4, 1, 7, 11),
                             arb::ArbAgRule::pack(6, 3, 7, 11)};
  std::sort(nbrs.begin(), nbrs.end());
  EXPECT_EQ(rule.step(frozen, nbrs), frozen);  // even with > p conflicts
}

TEST(ArbAgRule, ToleranceThreshold) {
  arb::ArbAgRule rule(11, 2);
  const Color c = arb::ArbAgRule::pack(9, 3, 5, 11);
  // Two different-psi conflicts: freezes.
  std::vector<Color> two = {arb::ArbAgRule::pack(1, 1, 5, 11),
                            arb::ArbAgRule::pack(2, 0, 5, 11)};
  std::sort(two.begin(), two.end());
  EXPECT_EQ(rule.step(c, two), arb::ArbAgRule::pack(9, 0, 5, 11));
  // Three: shifts b by a.
  auto three = two;
  three.push_back(arb::ArbAgRule::pack(3, 4, 5, 11));
  std::sort(three.begin(), three.end());
  EXPECT_EQ(rule.step(c, three), arb::ArbAgRule::pack(9, 3, (5 + 3) % 11, 11));
  // Same-psi conflicts are ignored entirely.
  std::vector<Color> same = {arb::ArbAgRule::pack(9, 1, 5, 11),
                             arb::ArbAgRule::pack(9, 2, 5, 11),
                             arb::ArbAgRule::pack(9, 4, 5, 11)};
  std::sort(same.begin(), same.end());
  EXPECT_EQ(rule.step(c, same), arb::ArbAgRule::pack(9, 0, 5, 11));
}

// ---------------------------------------------------------------------------
// SsConfig::step branch coverage
// ---------------------------------------------------------------------------

class SsStepBranches : public ::testing::Test {
 protected:
  SsStepBranches() : cfg_(64, 3, selfstab::PaletteMode::ODelta) {}
  selfstab::SsConfig cfg_;
};

TEST_F(SsStepBranches, InvalidValueResets) {
  EXPECT_EQ(cfg_.step(5, cfg_.span() + 123, {}), cfg_.reset_color(5));
}

TEST_F(SsStepBranches, NeighborConflictResets) {
  const std::uint64_t c = cfg_.reset_color(9);
  std::vector<std::uint64_t> nbrs = {c};
  EXPECT_EQ(cfg_.step(7, c, nbrs), cfg_.reset_color(7));
}

TEST_F(SsStepBranches, DescendsOneIntervalPerRound) {
  const auto& sched = cfg_.schedule();
  std::uint64_t c = cfg_.reset_color(12);
  std::size_t j = sched.interval_of(c);
  while (j >= 1) {
    const std::uint64_t next = cfg_.step(12, c, {});
    EXPECT_EQ(sched.interval_of(next), j - 1);
    c = next;
    j = sched.interval_of(c);
  }
  // Interval 0: AG finalizes with no conflicts -> final color, then stays.
  const std::uint64_t fin = cfg_.step(12, c, {});
  EXPECT_TRUE(cfg_.is_final(fin));
  EXPECT_EQ(cfg_.step(12, fin, {}), fin);
}

TEST_F(SsStepBranches, AgConflictShiftsInsideIntervalZero) {
  // Craft an I_0 working state <a=2, b=5> and a conflicting neighbor.
  const std::uint64_t q = cfg_.final_palette();
  const std::uint64_t c = 2 * q + 5;
  std::vector<std::uint64_t> nbrs = {3 * q + 5};  // same b, different a
  EXPECT_EQ(cfg_.step(1, c, nbrs), 2 * q + (5 + 2) % q);
  // Without conflict: finalize to <0,5>.
  std::vector<std::uint64_t> calm = {3 * q + 6};
  EXPECT_EQ(cfg_.step(1, c, calm), 5u);
}

TEST(SsStepExact, LiftedStatesStayDisjointFromLinialIntervals) {
  selfstab::SsConfig cfg(64, 3, selfstab::PaletteMode::ExactDeltaPlusOne);
  // I_0 must be wide enough to host the mixed state space.
  EXPECT_GE(cfg.schedule().interval_size(0), cfg.final_palette());
  // Malformed high states <0,0,a> reset.
  const std::uint64_t low_span = 2 * cfg.final_palette();
  EXPECT_EQ(cfg.step(4, low_span + 1, {}), cfg.reset_color(4));
}

TEST(SsMemory, OneWordOfRamPerVertex) {
  // The paper's O(1)-memory claim: the whole mutable state is one color word.
  selfstab::SsConfig cfg(16, 2, selfstab::PaletteMode::ODelta);
  selfstab::SsColoringProgram prog(cfg);
  EXPECT_EQ(prog.ram().size(), 1u);
}

}  // namespace
