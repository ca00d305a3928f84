// Benchmark program for the simulator: runs one workload on ASVM, XMM and IVY
// in turn, checks the outputs, and prints one JSON line with the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).
//
//   perfbench --workload em3d|file|file-sharded|contention --seed N
//             --seconds S --trace 0|1
//   perfbench --quick       every workload on small inputs, both modes
//   perfbench --self-test   shows that each output check can fail
//
// See README.md beside this file for the metrics and how they are measured.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

using asvm::DsmKind;

constexpr const char* kWorkloads[] = {"em3d", "file", "file-sharded", "contention"};

// Fewer operations that leave the node than this make the 99th percentile no
// tail (fewer than ten samples beyond it).
constexpr int64_t kMinRemoteOps = 1000;

// Host-time spans reported as per-layer metrics: seconds per round, summed
// over the three backends.
const std::pair<const char*, const char*> kSpanMetrics[] = {
    {"core.machine_build", "core.machine_build_s"},
    {"dsm.region_setup", "dsm.region_setup_s"},
    {"em3d.graph_build", "em3d.graph_build_s"},
    {"mappedfs.file_create", "mappedfs.file_create_s"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  bool quick = false;
  bool self_test = false;
};

struct Metric {
  double value;
  const char* unit;
};

struct Measurement {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;
  std::map<std::string, int64_t> message_types;
};

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload em3d|file|file-sharded|contention --seed N\n"
               "                 --seconds S --trace 0|1\n"
               "       perfbench --quick | --self-test\n");
}

bool ParseInt(const char* text, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args->quick = true;
      continue;
    }
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    long long v = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" && ParseInt(value, 0, (1LL << 62), &v)) {
      args->seed = static_cast<uint64_t>(v);
    } else if (flag == "--seconds" && ParseInt(value, 0, 3600, &v)) {
      args->seconds = static_cast<int>(v);
    } else if (flag == "--trace" && ParseInt(value, 0, 1, &v)) {
      args->trace = static_cast<int>(v);
    } else {
      return false;
    }
  }
  return args->quick || args->self_test || MakeWorkload(args->workload, 0, true) != nullptr;
}

const char* LayerUnit(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_ms")) return "sim_ms";  // fault breakdowns: simulated time
  if (ends_with("_s")) return "s";
  if (name.find(".mb") != std::string::npos) return "MB";
  if (name.find("host_ns_") != std::string::npos) return "ns";
  if (name.find("host_us_") != std::string::npos) return "us";
  if (name.find("_per_") != std::string::npos || name.find("share") != std::string::npos ||
      name == "trace.overhead") {
    return "ratio";
  }
  return "count";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool SameSimulation(const BackendResult& a, const BackendResult& b) {
  return a.attempted == b.attempted && a.failed == b.failed && a.remote_ops == b.remote_ops &&
         a.sim_s == b.sim_s && a.fault_ms_p50 == b.fault_ms_p50 &&
         a.fault_ms_p99 == b.fault_ms_p99;
}

// Per-layer counts that must not depend on the shard count: everything but
// the simulation core's own bookkeeping and host times.
bool ShardInvariant(const std::string& name) { return name.rfind("sim.", 0) != 0; }

// file-sharded must simulate exactly what file simulates (DESIGN.md §13): the
// same inputs on one shard give the same simulated metrics and counts.
void CompareWithOneShard(uint64_t seed, bool quick, const BackendResult* sharded,
                         std::vector<std::string>* errors) {
  HostSpans spans(false);
  RunOptions options;
  options.spans = &spans;
  std::unique_ptr<Workload> file = MakeWorkload("file", seed, quick);
  for (size_t b = 0; b < std::size(kBackends); ++b) {
    options.setup_start = Clock::now();
    const BackendResult one = file->Run(kBackends[b], options);
    const BackendResult& two = sharded[b];
    std::string diff;
    if (!SameSimulation(one, two)) {
      diff = "simulated metrics";
    }
    for (const auto& [name, value] : one.layer) {
      if (ShardInvariant(name) && two.layer.at(name) != value) {
        diff += (diff.empty() ? "" : ", ") + name;
      }
    }
    if (!diff.empty()) {
      errors->push_back(std::string("file-sharded differs from file on ") +
                        BackendSuffix(kBackends[b]) + ": " + diff);
    }
  }
}

// Runs whole rounds (one pass per backend) while another round, as long as the
// longest so far, still ends within `seconds` of the measurement's start; the
// first round always runs. A traced measurement alternates untraced and traced
// rounds, so it can report the tracing overhead.
Measurement Measure(const std::string& workload, uint64_t seed, int seconds, bool traced,
                    bool quick, Corrupt corrupt = Corrupt::kNone) {
  static bool first_pass_in_process = true;
  Measurement out;
  HostSpans spans(traced);
  RunOptions options;
  options.spans = &spans;
  options.corrupt = corrupt;
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Workload> w = MakeWorkload(workload, seed, quick);

  constexpr size_t kN = std::size(kBackends);
  BackendResult first[kN];
  BackendResult last_traced[kN];
  double setup_s = 0;
  // Host seconds each backend's pass spent in Machine::Run, per round,
  // [untraced, traced].
  std::vector<double> drains[kN][2];
  int rounds = 0;
  int traced_rounds = 0;
  double longest_round_s = 0;
  do {
    const Clock::time_point round_start = Clock::now();
    const bool traced_round = traced && rounds % 2 == 1;
    options.traced = traced_round;
    for (size_t b = 0; b < kN; ++b) {
      options.setup_start = first_pass_in_process ? ProcessStart() : Clock::now();
      first_pass_in_process = false;
      BackendResult r = w->Run(kBackends[b], options);
      const std::string tag = std::string(BackendSuffix(kBackends[b])) + ": ";
      for (const std::string& e : r.errors) {
        out.errors.push_back(tag + e);
      }
      out.attempted += r.attempted;
      out.failed += r.failed;
      drains[b][traced_round].push_back(r.drain_s);
      if (!quick) {
        std::fprintf(stderr, "round %d %s%s: %lld failed, set-up %.4f s, drain %.3f s\n", rounds,
                     BackendSuffix(kBackends[b]), traced_round ? " (traced)" : "",
                     static_cast<long long>(r.failed), r.setup_s, r.drain_s);
      }
      if (rounds == 0) {
        setup_s += r.setup_s;
        if (!quick && r.remote_ops < kMinRemoteOps) {
          out.errors.push_back(tag + "only " + std::to_string(r.remote_ops) +
                               " remote operations, too few for a 99th percentile");
        }
        first[b] = std::move(r);
      } else {
        if (!SameSimulation(first[b], r)) {
          out.errors.push_back(tag + (traced_round ? "traced run simulated differently"
                                                   : "rerun simulated differently"));
        }
        if (traced_round) {
          last_traced[b] = std::move(r);
        }
      }
    }
    traced_rounds += traced_round;
    ++rounds;
    longest_round_s = std::max(longest_round_s, SecondsBetween(round_start, Clock::now()));
  } while (SecondsBetween(start, Clock::now()) + longest_round_s <= seconds ||
           (traced && rounds < 2));

  if (workload == "file-sharded") {
    CompareWithOneShard(seed, quick, first, &out.errors);
  }

  // Throughput over one round of each backend, with each pass's host time
  // taken as its fastest over the rounds. The host's other load only ever adds
  // time, and it comes and goes over tens of seconds, so the fastest pass is
  // the one it disturbed least.
  auto ops_per_s = [&](int traced_rounds_only) {
    double ops = 0;
    double seconds = 0;
    for (size_t b = 0; b < kN; ++b) {
      const std::vector<double>& d = drains[b][traced_rounds_only];
      ops += static_cast<double>(first[b].attempted - first[b].failed);
      seconds += *std::min_element(d.begin(), d.end());
    }
    return ops / seconds;
  };
  auto put = [&](const std::string& name, double value, const char* unit) {
    out.metrics[name] = {value, unit};
  };
  if (!traced) {
    put("setup_s", setup_s, "s");
    put("ops_per_s", ops_per_s(0), "ops/s");
    put("peak_rss_mb", PeakRssMb(), "MB");
    for (size_t b = 0; b < kN; ++b) {
      const std::string s = BackendSuffix(kBackends[b]);
      put("sim_s." + s, first[b].sim_s, "sim_s");
      put("fault_ms_p50." + s, first[b].fault_ms_p50, "sim_ms");
      put("fault_ms_p99." + s, first[b].fault_ms_p99, "sim_ms");
    }
    return out;
  }

  for (size_t b = 0; b < kN; ++b) {
    const std::string s = BackendSuffix(kBackends[b]);
    for (const auto& [name, value] : last_traced[b].layer) {
      out.metrics[name].value += value;
      out.metrics[name].unit = LayerUnit(name);
    }
    for (const auto& [name, count] : last_traced[b].message_types) {
      out.message_types[name + "." + s] = count;
    }
  }
  for (const auto& [span, metric] : kSpanMetrics) {
    put(metric, spans.Total(span) / rounds, "s");
  }
  put("trace.analyze_s", spans.Total("trace.analyze") / traced_rounds, "s");
  put("trace.overhead", ops_per_s(0) / ops_per_s(1), "ratio");
  if (!quick) {
    spans.Print(stdout);
  }
  return out;
}

void PrintJson(const Measurement& m) {
  std::string json = "{\"correct\": ";
  json += m.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(m.attempted);
  json += ", \"failed\": " + std::to_string(m.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += (first ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void PrintErrors(const std::string& workload, const Measurement& m) {
  for (const std::string& e : m.errors) {
    std::fprintf(stderr, "%s: incorrect: %s\n", workload.c_str(), e.c_str());
  }
}

// Every workload on small inputs, untraced and traced.
int Quick(uint64_t seed) {
  int bad = 0;
  for (const char* w : kWorkloads) {
    for (int traced = 0; traced <= 1; ++traced) {
      const Clock::time_point start = Clock::now();
      const Measurement m = Measure(w, seed, 0, traced == 1, /*quick=*/true);
      PrintErrors(w, m);
      const bool ok = m.errors.empty();
      bad += !ok;
      std::printf("quick %-12s trace %d: %s, %lld operations (%lld failed), %zu metrics, %.2f s\n",
                  w, traced, ok ? "correct" : "INCORRECT", static_cast<long long>(m.attempted),
                  static_cast<long long>(m.failed), m.metrics.size(),
                  SecondsBetween(start, Clock::now()));
    }
  }
  return bad == 0 ? 0 : 1;
}

// Each output check must report a deliberately wrong expectation: as
// incorrect output on every backend, or, for a check on the measured
// operations themselves, as one more failed operation per backend.
int SelfTest(uint64_t seed) {
  const std::pair<const char*, Corrupt> cases[] = {
      {"em3d", Corrupt::kEm3dCell},
      {"file", Corrupt::kFileByte},
      {"file-sharded", Corrupt::kFileByte},
      {"contention", Corrupt::kSequence},
  };
  int bad = 0;
  for (const auto& [w, corrupt] : cases) {
    const Measurement base = Measure(w, seed, 0, false, /*quick=*/true);
    const Measurement m = Measure(w, seed, 0, false, /*quick=*/true, corrupt);
    bool incorrect = base.errors.empty();
    for (DsmKind dsm : kBackends) {
      const std::string tag = std::string(BackendSuffix(dsm)) + ": ";
      bool caught = false;
      for (const std::string& e : m.errors) {
        caught = caught || e.rfind(tag, 0) == 0;
      }
      incorrect = incorrect && caught;
    }
    const int64_t extra_failed = m.failed - base.failed;
    const bool ok = incorrect || extra_failed >= static_cast<int64_t>(std::size(kBackends));
    bad += !ok;
    std::printf("self-test %-12s wrong expectation: %s (%zu incorrect-output reports, %lld more "
                "failed operations)\n",
                w, ok ? "reported" : "NOT REPORTED", m.errors.size(),
                static_cast<long long>(extra_failed));
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (args.self_test) {
    return SelfTest(args.seed);
  }
  if (args.quick) {
    return Quick(args.seed);
  }
  const Measurement m =
      Measure(args.workload, args.seed, args.seconds, args.trace == 1, /*quick=*/false);
  for (const auto& [name, count] : m.message_types) {
    std::printf("detail %s %lld\n", name.c_str(), static_cast<long long>(count));
  }
  PrintErrors(args.workload, m);
  PrintJson(m);
  return 0;
}
