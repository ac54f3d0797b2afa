#pragma once

#include <cstdint>
#include <vector>

#include "agc/coloring/palette.hpp"
#include "agc/math/polynomial.hpp"
#include "agc/runtime/iterative.hpp"

/// \file linial.hpp
/// Linial's color reduction [49] in the interval-encoded ("Mod-Linial") form
/// of Section 4.1: each palette of the log* n-step reduction is mapped to its
/// own disjoint interval of colors, so a vertex can read its own progress off
/// its color.  This makes the reduction a pure locally-iterative rule — and
/// exactly the form the self-stabilizing algorithm runs forever.
///
/// One step: a vertex with palette-index x in interval j forms the polynomial
/// g_x over GF(q_j) whose coefficients are the base-q_j digits of x, and picks
/// the smallest evaluation point e where g_x differs from the polynomial of
/// every same-interval neighbor; its next color encodes the pair <e, g_x(e)>
/// in interval j-1.  Since distinct degree-d polynomials agree on at most d
/// points and q_j > d*Delta, such a point always exists.

namespace agc::coloring {

struct LinialStage {
  std::uint64_t from_palette;  ///< palette size before the stage
  std::uint64_t q;             ///< prime field size, q > d*Delta
  std::uint32_t d;             ///< polynomial degree
  std::uint64_t to_palette;    ///< q*q
};

class LinialSchedule {
 public:
  /// Build the reduction schedule from an initial `id_space`-coloring down to
  /// the O(Delta^2) fixed point.  With `excl_headroom`, the last stage uses
  /// degree 2 and a field of size > 4*Delta so that Excl-Linial can dodge up
  /// to 2*Delta forbidden colors (Section 4.1's set S').
  /// `final_room`, if non-zero, widens interval 0 to at least that many
  /// colors — the self-stabilizing exact-(Delta+1) algorithm hosts its mixed
  /// 3AG/AG(N) state space there (Section 7), which is larger than the plain
  /// final palette.
  LinialSchedule(std::uint64_t id_space, std::size_t delta,
                 bool excl_headroom = false, std::uint64_t final_room = 0);

  /// Number of reduction stages r (= number of working intervals).
  [[nodiscard]] std::size_t stages() const noexcept { return stages_.size(); }
  /// Stage i (0-based) maps interval r-i to interval r-i-1.
  [[nodiscard]] const LinialStage& stage(std::size_t i) const { return stages_[i]; }

  /// Interval j holds the palette after r-j stages; interval 0 is final,
  /// interval r holds the initial ID space.
  [[nodiscard]] std::uint64_t interval_size(std::size_t j) const;
  [[nodiscard]] std::uint64_t offset(std::size_t j) const { return offsets_[j]; }
  [[nodiscard]] std::size_t interval_of(Color c) const;
  /// One past the largest color any vertex can ever hold.
  [[nodiscard]] std::uint64_t total_span() const;

  [[nodiscard]] std::uint64_t final_palette() const { return interval_size(0); }
  [[nodiscard]] std::size_t delta() const noexcept { return delta_; }

 private:
  std::size_t delta_;
  std::uint64_t final_room_ = 0;
  std::vector<LinialStage> stages_;    ///< stage 0 applies first (widest palette)
  std::vector<std::uint64_t> offsets_;  ///< offsets_[j], j = 0..r
};

/// One Mod-Linial update for a vertex in interval j >= 1 with palette index
/// x.  `same_interval_xs` are the palette indices of neighbors currently in
/// interval j; `forbidden_next` are absolute colors in interval j-1 the new
/// color must avoid (Excl-Linial; pass {} for the plain algorithm).  Returns
/// the new absolute color in interval j-1.
[[nodiscard]] Color mod_linial_step(const LinialSchedule& sched, std::size_t j,
                                    std::uint64_t x,
                                    std::span<const std::uint64_t> same_interval_xs,
                                    std::span<const Color> forbidden_next);

/// Evaluate the digit polynomial of `value` (base-q digits, degree <= d) at
/// point e over GF(q), using O(1) words of memory — the streaming evaluation
/// sketched at the end of Section 3: a vertex re-reads each neighbor's color
/// per candidate point instead of materializing its polynomial.
[[nodiscard]] std::uint64_t eval_digit_poly(std::uint64_t q, std::uint64_t value,
                                            std::uint32_t d,
                                            std::uint64_t e) noexcept;

/// The plain Mod-Linial rule.  step() equals mod_linial_step with an empty
/// forbidden set, computed with eval_digit_poly in O(1) working memory and
/// without allocating.
class LinialRule final : public runtime::IterativeRule {
 public:
  explicit LinialRule(LinialSchedule schedule) : sched_(std::move(schedule)) {}

  [[nodiscard]] Color step(Color own,
                           std::span<const Color> neighbors) const override;
  [[nodiscard]] bool is_final(Color c) const override {
    return c < sched_.interval_size(0);
  }
  [[nodiscard]] std::uint32_t color_bits() const override;

  [[nodiscard]] const LinialSchedule& schedule() const noexcept { return sched_; }

 private:
  LinialSchedule sched_;
};

/// Run Linial's reduction: the identity n-coloring (or any proper coloring
/// over `id_space`) down to the O(Delta^2) fixed point in log* n + O(1)
/// rounds.  Initial colors are lifted into the top interval automatically.
[[nodiscard]] runtime::IterativeResult linial_color(
    graph::GraphView g, std::vector<Color> initial_ids, std::uint64_t id_space,
    std::size_t delta, const runtime::IterativeOptions& opts = {});

}  // namespace agc::coloring
