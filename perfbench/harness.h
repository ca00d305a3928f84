// Shared machinery of the benchmark program: closed-loop client logs, host
// spans around perfbench's calls into the simulator, the trace monitor of the
// traced mode, and one backend's pass through a workload (machine set-up,
// drain, per-layer counters).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/trace.h"
#include "src/core/machine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Taken during static initialisation, before main: the benchmark's set-up
// time counts from here.
Clock::time_point ProcessStart();

inline constexpr asvm::DsmKind kBackends[] = {asvm::DsmKind::kAsvm, asvm::DsmKind::kXmm,
                                              asvm::DsmKind::kIvy};

// "asvm", "xmm" or "ivy": the metric-name suffix of a backend.
const char* BackendSuffix(asvm::DsmKind dsm);

// A deliberately wrong expectation, so the self-test can show that each
// output check reports incorrect output.
enum class Corrupt { kNone, kEm3dCell, kFileByte, kSequence };

// What one closed-loop client issued: every operation is timed in simulated
// time from issue to completion on the client's own node. An operation fails
// when its Status is not kOk or when it returned a value the workload proves
// wrong.
struct ClientLog {
  int64_t ops = 0;
  int64_t failed = 0;
  bool finished = false;
  asvm::SimTime first_issue = std::numeric_limits<asvm::SimTime>::max();
  asvm::SimTime last_done = 0;
  std::vector<asvm::SimDuration> remote_ns;  // latencies above zero

  void Record(asvm::SimTime issued, asvm::SimTime done, bool ok) {
    ++ops;
    failed += !ok;
    first_issue = std::min(first_issue, issued);
    last_done = std::max(last_done, done);
    if (done > issued) {
      remote_ns.push_back(done - issued);
    }
  }
};

// Host-time spans around perfbench's calls into public simulator functions.
// Totals are kept per name; with `keep` set every span is also kept in memory
// and printed when the benchmark ends.
class HostSpans {
 public:
  explicit HostSpans(bool keep) : keep_(keep), origin_(ProcessStart()) {}

  void Add(const std::string& name, Clock::time_point start, Clock::time_point end);

  template <typename F>
  decltype(auto) Time(const std::string& name, F&& fn) {
    const Clock::time_point start = Clock::now();
    struct Closer {
      HostSpans* spans;
      const std::string& name;
      Clock::time_point start;
      ~Closer() { spans->Add(name, start, Clock::now()); }
    } closer{this, name, start};
    return fn();
  }

  double Total(const std::string& name) const;
  // One line per span name (count, total), then every kept span.
  void Print(std::FILE* out) const;

 private:
  struct Span {
    std::string name;
    double start_s;
    double end_s;
  };
  bool keep_;
  Clock::time_point origin_;
  std::map<std::string, double> totals_;
  std::map<std::string, int64_t> counts_;
  std::vector<Span> spans_;
};

// The traced mode's monitor: counts every event per emitting layer, counts
// remote sends and receives, and keeps the events AnalyzeFaultBreakdowns
// reads.
class BenchMonitor : public asvm::ProtocolMonitor {
 public:
  void OnEvent(const asvm::TraceEvent& event) override;

  std::array<int64_t, static_cast<size_t>(asvm::TraceProtocol::kProtocolCount)> per_protocol{};
  int64_t remote_sends = 0;
  int64_t remote_receives = 0;
  std::deque<asvm::TraceEvent> fault_events;
};

struct RunOptions {
  bool traced = false;
  // Set-up is timed from here (process start for the very first pass).
  Clock::time_point setup_start;
  Corrupt corrupt = Corrupt::kNone;
  HostSpans* spans = nullptr;
};

// One backend's pass through a workload.
struct BackendResult {
  asvm::DsmKind dsm = asvm::DsmKind::kAsvm;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t remote_ops = 0;
  double sim_s = 0;
  double fault_ms_p50 = 0;
  double fault_ms_p99 = 0;
  double setup_s = 0;  // host: from RunOptions::setup_start to the first operation
  double drain_s = 0;  // host: inside Machine::Run
  // Per-layer metrics of this pass. Counters every backend has carry the
  // backend's suffix ("mesh.messages.asvm"); the run sums the others over
  // the backends.
  std::map<std::string, double> layer;
  // Per-message-type transport counts (traced mode only).
  std::map<std::string, int64_t> message_types;
  std::vector<std::string> errors;  // failed output checks
};

// Builds a machine, runs its clients and gathers the pass's metrics. The
// workload creates regions and mappings through machine() and Time(), spawns
// its clients after StartClients(), and calls Drain() to run them.
class BackendPass {
 public:
  BackendPass(asvm::DsmKind dsm, asvm::MachineConfig config, RunOptions& options);
  ~BackendPass();
  BackendPass(const BackendPass&) = delete;
  BackendPass& operator=(const BackendPass&) = delete;

  asvm::Machine& machine() { return *machine_; }
  RunOptions& options() { return options_; }
  ClientLog& log(asvm::NodeId node) { return logs_[node]; }

  template <typename F>
  decltype(auto) Time(const std::string& span, F&& fn) {
    return options_.spans->Time(span, std::forward<F>(fn));
  }

  // Ends set-up: the next thing the workload does is issue operations.
  void StartClients();
  // Runs the machine until every spawned client has finished.
  void Drain();
  // Runs the output checks' reads, outside the measured operations.
  void RunChecks();
  void Fail(std::string what) { result_.errors.push_back(std::move(what)); }

  // Latency, span and counter summary; call after the last Drain().
  BackendResult Finish();

 private:
  uint64_t ExecutedEvents();

  RunOptions& options_;
  std::unique_ptr<BenchMonitor> monitor_;
  std::unique_ptr<asvm::Machine> machine_;
  std::vector<ClientLog> logs_;
  BackendResult result_;
  bool started_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
