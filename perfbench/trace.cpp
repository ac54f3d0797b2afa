// Span tracer output, the context stamp and the process-level probes
// (peak RSS, CPU count, last-level cache size) shared by all workloads.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <map>

#include "common.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

std::uint64_t llc_bytes() {
  for (const int key : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(key);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Outcome::stamp(std::string key, double value) {
  context.emplace_back(std::move(key), json_number(value));
}

void Outcome::stamp(std::string key, const std::string& text) {
  context.emplace_back(std::move(key), json_string(text));
}

void Outcome::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    problems.push_back(what);
  }
}

void Outcome::require(bool ok, const std::string& what) {
  if (!ok) problems.push_back(what);
}

double Tracer::total_s(std::string_view name) const {
  std::uint64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end - s.start;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::last_s(std::string_view name) const {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (name == it->name) return static_cast<double>(it->end - it->start) * 1e-9;
  }
  return 0.0;
}

bool Tracer::write(const std::string& path) const {
  // Self time: a span's duration minus the time its direct children cover
  // (children of one span run one after another on the driving thread).
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  struct Total {
    std::uint64_t count = 0, total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Total> summary;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Total& t = summary[spans_[i].name];
    const std::uint64_t dur = spans_[i].end - spans_[i].start;
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - std::min(dur, child_ns[i]);
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(f, "{\"run_id\": %llu,\n\"summary\": {",
               static_cast<unsigned long long>(run_id_));
  bool first = true;
  for (const auto& [name, t] : summary) {
    std::fprintf(f, "%s\n  %s: {\"count\": %llu, \"total_s\": %.9f, \"self_s\": %.9f}",
                 first ? "" : ",", json_string(name).c_str(),
                 static_cast<unsigned long long>(t.count), t.total_ns * 1e-9,
                 t.self_ns * 1e-9);
    first = false;
  }
  // Spans as [id, parent, name, start_ns, end_ns], times relative to the
  // first span; ids are positions in this list.
  std::fprintf(f, "},\n\"span_fields\": [\"id\", \"parent\", \"name\", \"start_ns\", \"end_ns\"],\n\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n[%zu,%lld,%s,%llu,%llu]", i == 0 ? "" : ",", i,
                 static_cast<long long>(s.parent), json_string(s.name).c_str(),
                 static_cast<unsigned long long>(s.start - t0),
                 static_cast<unsigned long long>(s.end - t0));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
