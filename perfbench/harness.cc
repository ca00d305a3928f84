#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "src/common/stats.h"

namespace perfbench {

using asvm::DsmKind;
using asvm::TraceEvent;
using asvm::TraceKind;

namespace {

const Clock::time_point kProcessStart = Clock::now();

// Nearest-rank percentile (the convention of asvm::Histogram).
double PercentileNs(std::vector<asvm::SimDuration>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return static_cast<double>(sorted[std::min(index, sorted.size() - 1)]);
}

// Counters every backend reports under its own name, read from the stats
// registry after the pass.
constexpr const char* kSharedCounters[] = {
    "sim.mutations_applied", "dsm.op_retries",        "dsm.duplicates_suppressed",
    "dsm.op_timeouts",       "sim.sharded.windows",   "sim.sharded.records_replayed",
    "mesh.messages",         "fault.jitter_messages", "fault.slowed_messages",
    "transport.sts.messages", "transport.sts.page_messages", "transport.norma.messages",
    "transport.norma.page_messages", "vm.faults_read", "vm.faults_write",
    "vm.zero_fills",         "vm.pageouts",           "disk.reads",
    "disk.writes",
};

constexpr const char* kAsvmCounters[] = {
    "asvm.read_grants",    "asvm.write_grants",     "asvm.write_upgrade_grants",
    "asvm.invalidations",  "asvm.fwd_static_hit",   "asvm.fwd_static_miss",
    "asvm.fwd_global_started", "asvm.fwd_escalations",
};
constexpr const char* kXmmCounters[] = {"xmm.manager_requests", "xmm.write_flushes",
                                        "xmm.reader_flushes", "xmm.dirty_cleanings"};
constexpr const char* kIvyCounters[] = {"dsm.ivy.forwards", "dsm.ivy.invalidations",
                                        "dsm.ivy.ownership_moves"};

// Trace kinds AnalyzeFaultBreakdowns folds; every other kind is only counted.
bool FeedsBreakdown(TraceKind kind) {
  switch (kind) {
    case TraceKind::kFaultRequest:
    case TraceKind::kXmmRequest:
    case TraceKind::kIvyRequest:
    case TraceKind::kForwardDynamic:
    case TraceKind::kForwardStatic:
    case TraceKind::kForwardGlobal:
    case TraceKind::kIvyForward:
    case TraceKind::kServeOwner:
    case TraceKind::kServeTerminal:
    case TraceKind::kPull:
    case TraceKind::kIvyServe:
    case TraceKind::kXmmManagerServe:
    case TraceKind::kXmmGrant:
    case TraceKind::kIvyGrant:
    case TraceKind::kRetry:
    case TraceKind::kTimeout:
    case TraceKind::kFailover:
    case TraceKind::kGrantApplied:
      return true;
    default:
      return false;
  }
}

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

Clock::time_point ProcessStart() { return kProcessStart; }

const char* BackendSuffix(DsmKind dsm) {
  switch (dsm) {
    case DsmKind::kAsvm:
      return "asvm";
    case DsmKind::kXmm:
      return "xmm";
    case DsmKind::kIvy:
      return "ivy";
  }
  return "unknown";
}

void HostSpans::Add(const std::string& name, Clock::time_point start, Clock::time_point end) {
  totals_[name] += SecondsBetween(start, end);
  ++counts_[name];
  if (keep_) {
    spans_.push_back({name, SecondsBetween(origin_, start), SecondsBetween(origin_, end)});
  }
}

double HostSpans::Total(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

void HostSpans::Print(std::FILE* out) const {
  for (const auto& [name, total] : totals_) {
    std::fprintf(out, "span %-28s count %8lld total %.6f s\n", name.c_str(),
                 static_cast<long long>(counts_.at(name)), total);
  }
  for (const Span& s : spans_) {
    std::fprintf(out, "span-event %s start %.6f end %.6f\n", s.name.c_str(), s.start_s,
                 s.end_s);
  }
}

void BenchMonitor::OnEvent(const TraceEvent& event) {
  ++per_protocol[static_cast<size_t>(event.protocol)];
  if (event.peer != asvm::kInvalidNode && event.peer != event.node) {
    remote_sends += event.kind == TraceKind::kMsgSend;
    remote_receives += event.kind == TraceKind::kMsgRecv;
  }
  if (FeedsBreakdown(event.kind)) {
    fault_events.push_back(event);
  }
}

BackendPass::BackendPass(DsmKind dsm, asvm::MachineConfig config, RunOptions& options)
    : options_(options) {
  config.dsm = dsm;
  config.per_type_message_stats = options.traced;
  result_.dsm = dsm;
  machine_ = Time("core.machine_build",
                  [&] { return std::make_unique<asvm::Machine>(config); });
  if (options.traced) {
    monitor_ = std::make_unique<BenchMonitor>();
    machine_->AttachMonitor(monitor_.get());
  }
  logs_.resize(static_cast<size_t>(config.nodes));
}

BackendPass::~BackendPass() {
  if (monitor_ != nullptr) {
    machine_->AttachMonitor(nullptr);
  }
}

void BackendPass::StartClients() {
  if (!started_) {
    started_ = true;
    result_.setup_s = SecondsBetween(options_.setup_start, Clock::now());
  }
}

void BackendPass::Drain() {
  const Clock::time_point start = Clock::now();
  Time("sim.drain", [&] { machine_->Run(); });
  result_.drain_s += SecondsBetween(start, Clock::now());
  for (size_t n = 0; n < logs_.size(); ++n) {
    if (logs_[n].ops > 0 && !logs_[n].finished) {
      Fail("client on node " + std::to_string(n) + " did not finish");
    }
  }
}

void BackendPass::RunChecks() {
  Time("check.drain", [&] { machine_->Run(); });
}

uint64_t BackendPass::ExecutedEvents() {
  asvm::Cluster& cluster = machine_->cluster();
  if (asvm::ShardedEngine* sharded = cluster.sharded_engine(); sharded != nullptr) {
    uint64_t total = 0;
    for (int i = 0; i < sharded->shard_count(); ++i) {
      total += sharded->shard(i).executed_events();
    }
    return total;
  }
  return cluster.engine().executed_events();
}

BackendResult BackendPass::Finish() {
  BackendResult& r = result_;
  asvm::SimTime first = std::numeric_limits<asvm::SimTime>::max();
  asvm::SimTime last = 0;
  std::vector<asvm::SimDuration> remote;
  for (ClientLog& log : logs_) {
    r.attempted += log.ops;
    r.failed += log.failed;
    if (log.ops > 0) {
      first = std::min(first, log.first_issue);
      last = std::max(last, log.last_done);
    }
    remote.insert(remote.end(), log.remote_ns.begin(), log.remote_ns.end());
  }
  std::sort(remote.begin(), remote.end());
  r.remote_ops = static_cast<int64_t>(remote.size());
  r.sim_s = r.attempted > 0 ? static_cast<double>(last - first) / 1e9 : 0.0;
  r.fault_ms_p50 = PercentileNs(remote, 50) / 1e6;
  r.fault_ms_p99 = PercentileNs(remote, 99) / 1e6;

  asvm::StatsRegistry& stats = machine_->stats();
  auto get = [&](const char* name) { return static_cast<double>(stats.Get(name)); };
  // Counters every backend has are named with the backend's suffix.
  const std::string suffix = std::string(".") + BackendSuffix(r.dsm);
  auto per_backend = [&](const std::string& name, double value) {
    r.layer[name + suffix] = value;
  };
  for (const char* name : kSharedCounters) {
    per_backend(name, get(name));
  }
  const double events = static_cast<double>(ExecutedEvents());
  const double messages = get("mesh.messages");
  const double windows = get("sim.sharded.windows");
  per_backend("sim.events", events);
  per_backend("sim.host_ns_per_event", events > 0 ? r.drain_s * 1e9 / events : 0.0);
  per_backend("sim.windows_per_message", messages > 0 ? windows / messages : 0.0);
  per_backend("sim.host_us_per_window", windows > 0 ? r.drain_s * 1e6 / windows : 0.0);
  per_backend("mesh.mb", get("mesh.bytes") / kMiB);
  per_backend("vm.fault_share", r.attempted > 0 ? get("vm.faults") / r.attempted : 0.0);
  per_backend("disk.mb_read", get("disk.bytes_read") / kMiB);
  per_backend("disk.mb_written", get("disk.bytes_written") / kMiB);
  switch (r.dsm) {
    case DsmKind::kAsvm:
      for (const char* name : kAsvmCounters) {
        r.layer[name] = get(name);
      }
      break;
    case DsmKind::kXmm:
      for (const char* name : kXmmCounters) {
        r.layer[name] = get(name);
      }
      break;
    case DsmKind::kIvy: {
      for (const char* name : kIvyCounters) {
        r.layer[name] = get(name);
      }
      const asvm::Histogram* chain = stats.FindHistogram("dsm.ivy.chain_length");
      const bool any = chain != nullptr && chain->count() > 0;
      r.layer["dsm.ivy.chain_length.p50"] = any ? chain->Percentile(50) : 0.0;
      r.layer["dsm.ivy.chain_length.max"] = any ? chain->max() : 0.0;
      break;
    }
  }

  if (monitor_ != nullptr) {
    BenchMonitor& m = *monitor_;
    for (size_t p = 0; p < m.per_protocol.size(); ++p) {
      r.layer[std::string("trace.events.") +
              asvm::ToString(static_cast<asvm::TraceProtocol>(p))] =
          static_cast<double>(m.per_protocol[p]);
    }
    if (m.remote_sends != m.remote_receives ||
        static_cast<double>(m.remote_sends) != messages) {
      Fail("remote sends " + std::to_string(m.remote_sends) + ", remote receives " +
           std::to_string(m.remote_receives) + ", mesh.messages " +
           std::to_string(static_cast<int64_t>(messages)));
    }
    const std::vector<asvm::FaultBreakdown> faults = Time("trace.analyze", [&] {
      std::sort(m.fault_events.begin(), m.fault_events.end(),
                [](const TraceEvent& a, const TraceEvent& b) {
                  return std::tie(a.time, a.node, a.node_seq) <
                         std::tie(b.time, b.node, b.node_seq);
                });
      return asvm::AnalyzeFaultBreakdowns(m.fault_events);
    });
    double request = 0, forward = 0, service = 0, transfer = 0, retry = 0;
    for (const asvm::FaultBreakdown& f : faults) {
      request += static_cast<double>(f.request_ns);
      forward += static_cast<double>(f.forward_ns);
      service += static_cast<double>(f.manager_service_ns);
      transfer += static_cast<double>(f.data_transfer_ns);
      retry += static_cast<double>(f.retry_ns);
    }
    const double per_fault_ms = faults.empty() ? 0.0 : 1.0 / (1e6 * faults.size());
    const std::string prefix = std::string("breakdown.") + BackendSuffix(r.dsm) + ".";
    r.layer[prefix + "request_ms"] = request * per_fault_ms;
    r.layer[prefix + "forward_ms"] = forward * per_fault_ms;
    r.layer[prefix + "manager_service_ms"] = service * per_fault_ms;
    r.layer[prefix + "data_transfer_ms"] = transfer * per_fault_ms;
    r.layer[prefix + "retry_ms"] = retry * per_fault_ms;
    for (const auto& [name, value] : stats.counters()) {
      if (name.rfind("transport.", 0) == 0 && name.find(".msg.") != std::string::npos) {
        r.message_types[name] = value.load();
      }
    }
  }
  return r;
}

}  // namespace perfbench
