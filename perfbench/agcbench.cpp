// agcbench — the measuring half of the repository benchmark
// (perfbench/README.md; perfbench/run.py builds and drives it).
//
//   agcbench --workload <scale-gnp|engine-regular|service-churn>
//            [--seed N] [--graph-seed N] [--seconds S] [--trace 0|1]
//            [--trace-out FILE] [--tiny]
//
// Prints two JSON lines: the run's context stamp, then the result
// {"correct", "attempted", "failed", "metrics"} with every metric the run
// measured, by name with its unit.  An untraced run (--trace 0) measures the
// end-to-end metrics; a traced run (--trace 1) records spans around the calls
// into each library layer and measures the per-layer metrics.  Exits 1 when
// any output fails its check, 2 on bad arguments.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

int usage(const char* why) {
  std::fprintf(stderr,
               "agcbench: %s\nusage: agcbench --workload <scale-gnp|engine-regular|"
               "service-churn> [--seed N] [--graph-seed N] [--seconds S] [--trace 0|1] "
               "[--trace-out FILE] [--tiny]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t v = 0;
    if (arg == "--tiny") {
      a.tiny = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      a.workload = argv[++i];
    } else if (arg == "--seed" && parse_u64(argv[++i], v)) {
      a.seed = v;
    } else if (arg == "--graph-seed" && parse_u64(argv[++i], v)) {
      a.graph_seed = v;
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && parse_u64(argv[++i], v) && v <= 1) {
      a.trace = v == 1;
    } else if (arg == "--trace-out") {
      a.trace_out = argv[++i];
    } else {
      return usage(("bad argument " + arg).c_str());
    }
  }
  if (!(a.seconds >= 0)) return usage("--seconds must be a number >= 0");

  const std::uint64_t run_id =
      perfbench::now_ns() ^ (a.seed * 0x9E3779B97F4A7C15ULL);
  perfbench::Tracer tracer(a.trace, run_id);
  Outcome out;
  try {
    const auto root = tracer.span("perfbench.run");
    if (a.workload == "scale-gnp") {
      out = perfbench::run_scale_gnp(a, tracer);
    } else if (a.workload == "engine-regular") {
      out = perfbench::run_engine_regular(a, tracer);
    } else if (a.workload == "service-churn") {
      out = perfbench::run_service_churn(a, tracer);
    } else {
      return usage(("unknown workload '" + a.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "agcbench: %s failed: %s\n", a.workload.c_str(), e.what());
    return 1;
  }
  if (std::none_of(out.metrics.begin(), out.metrics.end(),
                   [](const Outcome::Metric& m) { return m.name == "peak_rss_mb"; })) {
    out.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
  }
  if (out.attempted > 0) {
    out.metric("pass_rate",
               static_cast<double>(out.attempted - out.failed) /
                   static_cast<double>(out.attempted),
               "ratio");
  }
  if (a.trace) {
    out.metric("trace.spans", static_cast<double>(tracer.size()), "count");
    if (!a.trace_out.empty() && !tracer.write(a.trace_out)) {
      out.require(false, "cannot write spans to " + a.trace_out);
    }
  }
  if (out.attempted == 0) out.require(false, "no operation ran");
  for (const auto& m : out.metrics) {
    if (!std::isfinite(m.value)) out.require(false, "metric " + m.name + " is not finite");
  }

  std::string ctx = "{\"context\": {\"workload\": " + perfbench::json_string(a.workload) +
                    ", \"seed\": " + std::to_string(a.seed) +
                    ", \"graph_seed\": " + std::to_string(a.graph_seed) +
                    ", \"seconds\": " + perfbench::json_number(a.seconds) +
                    ", \"trace\": " + (a.trace ? "1" : "0") +
                    ", \"tiny\": " + (a.tiny ? "true" : "false") +
                    ", \"nproc\": " + std::to_string(perfbench::nproc()) +
                    ", \"build_type\": " + perfbench::json_string(AGC_BENCH_BUILD_TYPE) +
                    ", \"run_id\": " + std::to_string(run_id);
  for (const auto& [k, v] : out.context) ctx += ", " + perfbench::json_string(k) + ": " + v;
  std::printf("%s}}\n", ctx.c_str());

  std::string res = std::string("{\"correct\": ") + (out.correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(out.attempted) +
                    ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    res += (i == 0 ? "" : ", ") + perfbench::json_string(m.name) +
           ": {\"value\": " + perfbench::json_number(std::isfinite(m.value) ? m.value : 0.0) +
           ", \"unit\": " + perfbench::json_string(m.unit) + "}";
  }
  std::printf("%s}}\n", res.c_str());

  const std::size_t shown = std::min<std::size_t>(out.problems.size(), 10);
  for (std::size_t i = 0; i < shown; ++i) {
    std::fprintf(stderr, "agcbench: FAIL %s\n", out.problems[i].c_str());
  }
  if (out.problems.size() > shown) {
    std::fprintf(stderr, "agcbench: ... and %zu more failures\n", out.problems.size() - shown);
  }
  return out.correct() ? 0 : 1;
}
