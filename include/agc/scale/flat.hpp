#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "agc/graph/checks.hpp"
#include "agc/graph/view.hpp"
#include "agc/runtime/iterative.hpp"

/// \file flat.hpp
/// The web-graph-scale flat runner (docs/SCALE.md).
///
/// The round engine carries per-vertex mailboxes, a transport ledger and
/// program objects — the machinery faults, traces and congestion accounting
/// need.  At n = 10^7 none of that fits the budget, and none of it is needed
/// for the fault-free BSP case: a locally-iterative rule is a pure function
/// of (own color, sorted neighbor multiset), so a double-buffered update per
/// round reproduces the engine bit for bit.  The flat runner is that update
/// over the frozen CSR with two bit-packed color buffers, contiguous vertex
/// shards on the exec thread pool, and a frontier: a round steps only
/// non-final vertices whose closed neighborhood changed in the previous
/// round (every non-final vertex in a call's first round), since every
/// other vertex would return its current color.
///
/// Determinism: a round depends only on the previous round's colors and
/// change bits, so any shard partition gives identical results; shards are
/// the executor's degree-weighted cuts rounded to multiples of 64 vertices
/// (exec::degree_weighted_bounds), so packed and bitmap writes never share a
/// word.  The pipeline is not restated here: color_delta_plus_one_flat()
/// runs the stage plans of coloring/stage_plan.hpp, the same ones the
/// engine's color_delta_plus_one() runs.  Color contract, pinned by tests:
/// the two return the same colors and per-stage rounds for every graph and
/// thread count, and run_flat() matches run_locally_iterative() at every
/// round cap.

namespace agc::scale {

struct FlatOptions {
  /// Worker threads for the per-round sweep (0 = all hardware threads).
  std::size_t threads = 1;
};

struct FlatResult {
  std::vector<graph::Color> colors;
  std::size_t rounds = 0;         ///< total rounds across all stages
  std::size_t rounds_linial = 0;  ///< log* phase
  std::size_t rounds_core = 0;    ///< AG phase
  std::size_t rounds_finish = 0;  ///< greedy palette finish
  bool converged = false;
  bool proper = false;            ///< final coloring verified proper
  std::size_t palette = 0;        ///< distinct colors in the final coloring
  /// Peak bytes of working state (both packed buffers and the three frontier
  /// bitmaps) across stages — the number BENCH_scale.json reports as
  /// state_bytes_per_vertex.
  std::uint64_t state_bytes = 0;
};

/// Run one rule to its fixed point, BSP semantics, at most `max_rounds`
/// rounds, stepping only the frontier (docs/SCALE.md).  `palette_bound` is
/// one past the largest color that can occur at any point of the run
/// (initial colors included); it sizes the packed buffers.  Returns the
/// final colors plus rounds/convergence.
[[nodiscard]] FlatResult run_flat(graph::GraphView g,
                                  std::vector<graph::Color> initial,
                                  const runtime::IterativeRule& rule,
                                  std::uint64_t palette_bound,
                                  std::size_t max_rounds,
                                  const FlatOptions& opts = {});

/// The full (Delta+1)-coloring pipeline — Linial, AG, greedy finish — on
/// the flat runner: each stage planned by coloring::plan_delta_plus_one_stage
/// and run through run_flat.
[[nodiscard]] FlatResult color_delta_plus_one_flat(graph::GraphView g,
                                                   const FlatOptions& opts = {});

}  // namespace agc::scale
