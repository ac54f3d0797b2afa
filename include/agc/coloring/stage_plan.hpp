#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "agc/coloring/palette.hpp"
#include "agc/runtime/iterative.hpp"

/// \file stage_plan.hpp
/// One stage of a locally-iterative pipeline, planned once and runnable by
/// either runner.
///
/// A stage is a rule plus what the paper's analysis derives from the colors
/// it starts from: the initial coloring lifted into the rule's encoding, the
/// round cap that guarantees convergence, and the palette bound (one past the
/// largest color the run can hold).  The planners below are the only place
/// those numbers are written down.  The round engine runs a plan through
/// run_plan — linial_color, additive_group_color and reduce_colors are "plan,
/// then run_plan" — and the flat runner runs the same plans through
/// scale::run_flat, so the two runners cannot drift apart.

namespace agc::coloring {

struct StagePlan {
  /// The stage's rule; null when the stage has nothing to do, in which case
  /// `initial` is already the stage's result.
  std::unique_ptr<runtime::IterativeRule> rule;
  std::vector<Color> initial;       ///< start coloring, in the rule's encoding
  std::size_t max_rounds = 0;       ///< rounds the analysis guarantees suffice
  std::uint64_t palette_bound = 0;  ///< one past the largest color of the run
};

/// Linial's reduction (linial.hpp) from IDs in [0, id_space): the IDs are
/// lifted into the schedule's top interval; at most stages() + 2 rounds;
/// palette bound total_span().  No rule when the schedule has no stage.
[[nodiscard]] StagePlan plan_linial(std::vector<Color> ids, std::uint64_t id_space,
                                    std::size_t delta);

/// AG (ag.hpp) from a proper k-coloring: modulus q = ag_modulus(delta, k);
/// q + 2 rounds (Corollary 3.5, plus slack for the empty-graph and
/// already-final corner cases); palette bound max(q^2, k).
[[nodiscard]] StagePlan plan_ag(std::vector<Color> colors, std::size_t delta);

/// The standard reduction (reduction.hpp) of a proper k-coloring to
/// [0, target): k - target + 1 rounds (1 when k <= target); palette bound
/// max(k, target).
[[nodiscard]] StagePlan plan_reduce(std::vector<Color> colors, std::uint64_t target);

/// Stages of color_delta_plus_one (Corollary 3.6): 0 Linial, 1 AG, 2 the
/// greedy finish to Delta + 1 colors.
inline constexpr std::size_t kDeltaPlusOneStages = 3;

/// Plan stage `index` of color_delta_plus_one on g from `colors`: for stage 0
/// the IDs, drawn from [0, max(n, 1) * id_space_factor); after that the
/// coloring the previous stage ended with.  Delta is g.max_degree().
[[nodiscard]] StagePlan plan_delta_plus_one_stage(std::size_t index,
                                                  graph::GraphView g,
                                                  std::vector<Color> colors,
                                                  std::uint64_t id_space_factor = 1);

/// Run a plan on the round engine for at most min(opts.max_rounds,
/// plan.max_rounds) rounds.  A plan without a rule returns its initial
/// coloring, converged, after zero rounds and without starting an engine.
[[nodiscard]] runtime::IterativeResult run_plan(graph::GraphView g, StagePlan plan,
                                                const runtime::IterativeOptions& opts = {});

}  // namespace agc::coloring
