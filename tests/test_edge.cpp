// Edge-coloring suite: Kuhn's 2-defective pairs, the class chains, CV defect
// removal, and the distributed CONGEST / Bit-Round pipeline of Section 5.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "agc/coloring/cole_vishkin.hpp"
#include "agc/edge/defective_edge.hpp"
#include "agc/edge/edge_coloring.hpp"
#include "agc/graph/generators.hpp"
#include "agc/runtime/engine.hpp"
#include "agc/runtime/faults.hpp"

namespace {

using namespace agc;

TEST(DefectiveEdge, PairsAreTwoDefective) {
  const auto g = graph::random_regular(80, 7, 3);
  const auto pairs = edge::kuhn_defective_pairs(g);
  const auto edges = graph::edge_list(g);
  // At any vertex, each class <i,j> appears at most twice (once outgoing,
  // once incoming).
  std::map<std::tuple<graph::Vertex, std::uint32_t, std::uint32_t>, int> out_cnt,
      in_cnt;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    EXPECT_GE(pairs[e].i, 1u);
    EXPECT_LE(pairs[e].i, g.max_degree());
    ++out_cnt[{edges[e].first, pairs[e].i, pairs[e].j}];
    ++in_cnt[{edges[e].second, pairs[e].i, pairs[e].j}];
  }
  for (const auto& [k, c] : out_cnt) EXPECT_LE(c, 1);
  for (const auto& [k, c] : in_cnt) EXPECT_LE(c, 1);
}

TEST(DefectiveEdge, ChainsAreFunctional) {
  const auto g = graph::random_gnp(100, 0.08, 9);
  const auto pairs = edge::kuhn_defective_pairs(g);
  const auto succ = edge::class_successors(g, pairs);
  // In-degree of the successor relation is at most 1 (chains, not trees).
  std::vector<int> indeg(g.m(), 0);
  for (std::size_t e = 0; e < succ.size(); ++e) {
    if (succ[e] != coloring::cv::npos) {
      ++indeg[succ[e]];
      // Successors stay within the class.
      EXPECT_EQ(pairs[e].i, pairs[succ[e]].i);
      EXPECT_EQ(pairs[e].j, pairs[succ[e]].j);
    }
  }
  for (int d : indeg) EXPECT_LE(d, 1);
}

TEST(DefectiveEdge, HostPipelineIsProper) {
  const auto g = graph::random_regular(100, 8, 21);
  std::size_t rounds = 0;
  const auto colors = edge::defect_free_edge_coloring(g, &rounds);
  EXPECT_TRUE(graph::is_proper_edge_coloring(g, colors));
  EXPECT_LT(graph::max_color(colors), 3 * g.max_degree() * g.max_degree());
  EXPECT_LE(rounds, 40u);  // log* + O(1)
}

TEST(EdgeColoring, CongestExactTwoDeltaMinusOne) {
  const auto g = graph::random_regular(100, 8, 5);
  const auto res = edge::color_edges_distributed(g);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.proper);
  EXPECT_LT(graph::max_color(res.colors), 2 * g.max_degree() - 1);
}

TEST(EdgeColoring, CongestODeltaPalette) {
  const auto g = graph::random_gnp(120, 0.07, 13);
  edge::EdgeColoringOptions opts;
  opts.exact = false;
  const auto res = edge::color_edges_distributed(g, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.proper);
  // Lemma 5.1: O(Delta) colors (the AG modulus is < 5*Delta here).
  EXPECT_LT(graph::max_color(res.colors), 6 * g.max_degree());
}

TEST(EdgeColoring, BitRoundModelWorksAndBitsAreLinear) {
  const auto g = graph::random_regular(60, 6, 8);
  edge::EdgeColoringOptions opts;
  opts.bit_round = true;
  const auto res = edge::color_edges_distributed(g, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.proper);
  EXPECT_LT(graph::max_color(res.colors), 2 * g.max_degree() - 1);
  // Lemma 5.2: O(Delta + log n) bits per edge per direction.
  EXPECT_LT(res.avg_bits_per_edge, 60.0 * (g.max_degree() + 10));
}

TEST(EdgeColoring, ChurnRebindsPortsToTheReceivingVertex) {
  // Edge churn renumbers a vertex's ports mid-run.  The two endpoints of an
  // edge update its color in lockstep from the words they exchange, so an
  // edge churn never touched ends with one color at both endpoints exactly
  // when every word reached the neighbor its port names.
  const auto g = graph::random_regular(60, 4, 17);
  const edge::EdgeSchedule sched(g.n(), g.max_degree(), true);
  runtime::Engine engine(g, runtime::Transport(runtime::Model::CONGEST));
  engine.install([&](const runtime::VertexEnv&) {
    return std::make_unique<edge::EdgeColoringProgram>(sched, false);
  });
  runtime::PeriodicAdversary adv(5, {.period = 3, .last_round = 18, .edge_adds = 2,
                                     .edge_removes = 2, .dmax = g.max_degree() + 1});
  auto edges = [&engine] {
    const auto list = graph::edge_list(engine.graph());
    return std::set<std::pair<graph::Vertex, graph::Vertex>>(list.begin(), list.end());
  };
  std::set<std::pair<graph::Vertex, graph::Vertex>> touched;
  for (std::size_t round = 1; round <= sched.logical_rounds() + 2 && !engine.all_halted();
       ++round) {
    engine.step();
    const auto before = edges();
    adv.inject(engine, round);
    const auto after = edges();
    std::set_symmetric_difference(before.begin(), before.end(), after.begin(), after.end(),
                                  std::inserter(touched, touched.end()));
  }
  ASSERT_TRUE(engine.all_halted());
  EXPECT_FALSE(touched.empty());

  std::size_t untouched = 0;
  for (const auto& [u, w] : edges()) {
    const auto& pu = dynamic_cast<const edge::EdgeColoringProgram&>(engine.program(u));
    const auto& pw = dynamic_cast<const edge::EdgeColoringProgram&>(engine.program(w));
    const auto cu = pu.edge_color(w);
    const auto cw = pw.edge_color(u);
    ASSERT_TRUE(cu.has_value() && cw.has_value()) << u << "-" << w;
    if (touched.count({u, w}) != 0) continue;
    EXPECT_EQ(*cu, *cw) << u << "-" << w;
    ++untouched;
  }
  EXPECT_GT(untouched, 0u);
}

TEST(EdgeColoring, PathAndCycleAndStar) {
  for (const auto& g : {graph::path(20), graph::cycle(21), graph::star(12)}) {
    const auto res = edge::color_edges_distributed(g);
    EXPECT_TRUE(res.converged);
    EXPECT_TRUE(res.proper);
    EXPECT_LE(graph::max_color(res.colors),
              std::max<std::size_t>(2 * g.max_degree() - 1, 1) - 1);
  }
}

}  // namespace
