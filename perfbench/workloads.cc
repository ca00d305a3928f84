#include "perfbench/workloads.h"

#include <bit>
#include <cstring>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/dsm/cluster_sync.h"
#include "src/em3d/em3d.h"
#include "src/machvm/file_pager.h"
#include "src/sim/task.h"

namespace perfbench {

using asvm::ClusterBarrier;
using asvm::DsmKind;
using asvm::Engine;
using asvm::MachineConfig;
using asvm::MemObjectId;
using asvm::NodeId;
using asvm::SimTime;
using asvm::Status;
using asvm::Task;
using asvm::TaskMemory;
using asvm::VmOffset;

namespace {

// Every read goes through ReadBytes, which returns a Status; ReadU64 would
// abort the process when a fault fails.
asvm::Future<Status> Read8(TaskMemory& mem, VmOffset addr, uint64_t* out) {
  return mem.ReadBytes(addr, std::as_writable_bytes(std::span<uint64_t, 1>(out, 1)));
}

uint64_t Word(const std::vector<std::byte>& bytes, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

// Maps `region` on every node in ascending order, as the paper benches do.
std::vector<TaskMemory*> MapAll(BackendPass& pass, const MemObjectId& region) {
  return pass.Time("dsm.region_setup", [&] {
    std::vector<TaskMemory*> mems;
    for (NodeId n = 0; n < pass.machine().nodes(); ++n) {
      mems.push_back(&pass.machine().MapRegion(n, region));
    }
    return mems;
  });
}

// Reads [addr, addr + out.size()) on `mem` outside the measured operations.
Task CheckRead(TaskMemory& mem, VmOffset addr, std::span<std::byte> out, Status* status) {
  *status = co_await mem.ReadBytes(addr, out);
}

// --- em3d --------------------------------------------------------------------
//
// The paper's EM3D (§4.3) in verified mode: every neighbour value is read and
// every cell written through the DSM by the cell's owner. Most accesses hit
// locally; the remote ones are boundary pages and the write faults that
// follow a neighbour's read.
//
// The graph is the same for every seed; the seed picks the initial cell
// values. A seeded graph moves XMM's median fault latency between latency
// clusters (9.0 to 13.3 ms over ten seeds), so no bound could hold it.

class Em3dWorkload : public Workload {
 public:
  Em3dWorkload(uint64_t seed, bool quick) {
    nodes_ = quick ? 4 : 16;
    params_.cells = quick ? 4000 : 64000;
    params_.iterations = quick ? 3 : 20;
    params_.seed = kGraphSeed;
    asvm::Rng rng(seed ^ 0x3e3dULL);
    init_.resize(static_cast<size_t>(params_.cells));
    for (double& v : init_) {
      v = rng.NextDouble() * 2.0 - 1.0;
    }
  }

  BackendResult Run(DsmKind dsm, RunOptions& options) override {
    MachineConfig config;
    config.nodes = nodes_;
    BackendPass pass(dsm, config, options);
    asvm::Machine& machine = pass.machine();
    auto graph = pass.Time("em3d.graph_build", [&] {
      return std::make_unique<asvm::Em3dGraph>(params_, nodes_);
    });
    const MemObjectId region = pass.Time("dsm.region_setup", [&] {
      return machine.CreateSharedRegion(/*home=*/0, graph->region_pages());
    });
    std::vector<TaskMemory*> mems = MapAll(pass, region);
    ClusterBarrier barrier(machine.cluster(), nodes_);

    pass.StartClients();
    for (NodeId n = 0; n < nodes_; ++n) {
      (void)Client(*graph, *mems[n], n, barrier, pass.log(n));
    }
    pass.Drain();
    Check(pass, *graph, mems);
    return pass.Finish();
  }

 private:
  static double BitsDouble(uint64_t b) { return std::bit_cast<double>(b); }
  static uint64_t DoubleBits(double v) { return std::bit_cast<uint64_t>(v); }

  double InitE(int64_t i) const { return init_[static_cast<size_t>(i)]; }
  double InitH(int64_t i) const { return init_[static_cast<size_t>(params_.cells / 2 + i)]; }

  // One node's closed loop: initialise the owned cells, then per iteration
  // update every owned E cell from its H neighbours and every owned H cell
  // from its E neighbours, with a cluster barrier after each phase.
  Task Client(const asvm::Em3dGraph& g, TaskMemory& mem, NodeId node, ClusterBarrier& barrier,
              ClientLog& log) {
    Engine& engine = mem.vm().engine();
    const int k = params_.edges_per_cell;
    const auto [e_lo, e_hi] = g.ERange(node);
    const auto [h_lo, h_hi] = g.HRange(node);
    for (int64_t i = e_lo; i < e_hi; ++i) {
      const SimTime t0 = engine.Now();
      const Status s = co_await mem.WriteU64(g.EAddr(i), DoubleBits(InitE(i)));
      log.Record(t0, engine.Now(), asvm::IsOk(s));
    }
    for (int64_t i = h_lo; i < h_hi; ++i) {
      const SimTime t0 = engine.Now();
      const Status s = co_await mem.WriteU64(g.HAddr(i), DoubleBits(InitH(i)));
      log.Record(t0, engine.Now(), asvm::IsOk(s));
    }
    co_await barrier.Arrive(node);
    for (int iter = 0; iter < params_.iterations; ++iter) {
      for (int phase = 0; phase < 2; ++phase) {
        const bool e_phase = phase == 0;
        const int64_t lo = e_phase ? e_lo : h_lo;
        const int64_t hi = e_phase ? e_hi : h_hi;
        const std::vector<int64_t>& nbs = e_phase ? g.e_neighbors() : g.h_neighbors();
        for (int64_t i = lo; i < hi; ++i) {
          double sum = 0;
          for (int j = 0; j < k; ++j) {
            const int64_t nb = nbs[static_cast<size_t>(i) * k + j];
            uint64_t bits = 0;
            const SimTime t0 = engine.Now();
            const Status s = co_await Read8(mem, e_phase ? g.HAddr(nb) : g.EAddr(nb), &bits);
            log.Record(t0, engine.Now(), asvm::IsOk(s));
            sum += asvm::Em3dGraph::Weight(j) * BitsDouble(bits);
          }
          const SimTime t0 = engine.Now();
          const Status s = co_await mem.WriteU64(e_phase ? g.EAddr(i) : g.HAddr(i),
                                                 DoubleBits(sum));
          log.Record(t0, engine.Now(), asvm::IsOk(s));
        }
        co_await barrier.Arrive(node);
      }
    }
    log.finished = true;
  }

  // The same sweeps, computed sequentially on host arrays from the graph's
  // public neighbour lists.
  void ComputeReference(const asvm::Em3dGraph& g) {
    const int k = params_.edges_per_cell;
    ref_e_.resize(static_cast<size_t>(g.e_cells()));
    ref_h_.resize(static_cast<size_t>(g.h_cells()));
    for (int64_t i = 0; i < g.e_cells(); ++i) {
      ref_e_[static_cast<size_t>(i)] = InitE(i);
    }
    for (int64_t i = 0; i < g.h_cells(); ++i) {
      ref_h_[static_cast<size_t>(i)] = InitH(i);
    }
    for (int iter = 0; iter < params_.iterations; ++iter) {
      for (int phase = 0; phase < 2; ++phase) {
        const bool e_phase = phase == 0;
        std::vector<double>& out = e_phase ? ref_e_ : ref_h_;
        const std::vector<double>& in = e_phase ? ref_h_ : ref_e_;
        const std::vector<int64_t>& nbs = e_phase ? g.e_neighbors() : g.h_neighbors();
        for (size_t i = 0; i < out.size(); ++i) {
          double sum = 0;
          for (int j = 0; j < k; ++j) {
            sum += asvm::Em3dGraph::Weight(j) * in[static_cast<size_t>(nbs[i * k + j])];
          }
          out[i] = sum;
        }
      }
    }
  }

  // Every owner reads back its final cells; each must equal the sequential
  // sweep bit for bit.
  void Check(BackendPass& pass, const asvm::Em3dGraph& g, std::vector<TaskMemory*>& mems) {
    if (ref_e_.empty()) {
      ComputeReference(g);
    }
    const int64_t stride = params_.bytes_per_cell;
    std::vector<std::vector<std::byte>> e_bytes(nodes_), h_bytes(nodes_);
    std::vector<Status> status(2 * nodes_, Status::kOk);
    for (NodeId n = 0; n < nodes_; ++n) {
      const auto [e_lo, e_hi] = g.ERange(n);
      const auto [h_lo, h_hi] = g.HRange(n);
      e_bytes[n].resize(static_cast<size_t>((e_hi - e_lo) * stride));
      h_bytes[n].resize(static_cast<size_t>((h_hi - h_lo) * stride));
      (void)CheckRead(*mems[n], g.EAddr(e_lo), e_bytes[n], &status[2 * n]);
      (void)CheckRead(*mems[n], g.HAddr(h_lo), h_bytes[n], &status[2 * n + 1]);
    }
    pass.RunChecks();
    int64_t wrong = 0;
    std::string first;
    auto compare = [&](const char* kind, int64_t i, uint64_t got, double want_value) {
      uint64_t want = DoubleBits(want_value);
      if (pass.options().corrupt == Corrupt::kEm3dCell && i == 0 && kind[0] == 'E') {
        want ^= 1;
      }
      if (got != want) {
        if (wrong++ == 0) {
          first = std::string(kind) + " cell " + std::to_string(i);
        }
      }
    };
    for (NodeId n = 0; n < nodes_; ++n) {
      if (!asvm::IsOk(status[2 * n]) || !asvm::IsOk(status[2 * n + 1])) {
        pass.Fail("em3d: check read failed on node " + std::to_string(n));
        continue;
      }
      const auto [e_lo, e_hi] = g.ERange(n);
      const auto [h_lo, h_hi] = g.HRange(n);
      for (int64_t i = e_lo; i < e_hi; ++i) {
        compare("E", i, Word(e_bytes[n], static_cast<size_t>((i - e_lo) * stride)),
                ref_e_[static_cast<size_t>(i)]);
      }
      for (int64_t i = h_lo; i < h_hi; ++i) {
        compare("H", i, Word(h_bytes[n], static_cast<size_t>((i - h_lo) * stride)),
                ref_h_[static_cast<size_t>(i)]);
      }
    }
    if (wrong > 0) {
      pass.Fail("em3d: " + std::to_string(wrong) +
                " cells differ from the sequential sweep, first " + first);
    }
  }

  static constexpr uint64_t kGraphSeed = 1;

  int nodes_;
  asvm::Em3dParams params_;
  std::vector<double> init_;  // E cells, then H cells
  std::vector<double> ref_e_;
  std::vector<double> ref_h_;
};

// --- file / file-sharded -----------------------------------------------------
//
// Table 2's shape: every node but the I/O node (node 0) reads the whole
// prefilled mapped file, one word per page in page order, then writes its own
// disjoint section. All the work is protocol messages, page copies and the
// file pager's disk.

class FileWorkload : public Workload {
 public:
  static constexpr int kWordsPerPage = 8192 / 8;
  static constexpr int kWritesPerPage = 4;

  FileWorkload(uint64_t seed, bool quick, int shards) : shards_(shards) {
    nodes_ = quick ? 8 : 128;
    pages_ = quick ? 32 : 512;
    readers_ = nodes_ - 1;
    section_ = pages_ / readers_;
    asvm::Rng rng(seed ^ 0xf11eULL);
    read_word_.resize(static_cast<size_t>(readers_) * pages_);
    for (uint16_t& w : read_word_) {
      w = static_cast<uint16_t>(rng.NextBelow(kWordsPerPage));
    }
    writes_.resize(static_cast<size_t>(pages_) * kWritesPerPage);
    for (Write& w : writes_) {
      w.word = static_cast<uint16_t>(rng.NextBelow(kWordsPerPage));
      w.value = rng.NextU64();
    }
    // The file as FilePager::FillPattern defines it (the first file a fresh
    // machine creates has id 0), before and after the writes.
    const size_t ps = kWordsPerPage * 8;
    fill_.resize(static_cast<size_t>(pages_) * kWordsPerPage);
    std::vector<std::byte> page(ps);
    for (int p = 0; p < pages_; ++p) {
      asvm::FilePager::FillPattern(kFileId, static_cast<asvm::PageIndex>(p), page);
      std::memcpy(&fill_[static_cast<size_t>(p) * kWordsPerPage], page.data(), ps);
    }
    written_ = fill_;
    for (int p = 0; p < pages_; ++p) {
      for (int k = 0; k < kWritesPerPage; ++k) {
        const Write& w = writes_[static_cast<size_t>(p) * kWritesPerPage + k];
        written_[static_cast<size_t>(p) * kWordsPerPage + w.word] = w.value;
      }
    }
  }

  BackendResult Run(DsmKind dsm, RunOptions& options) override {
    MachineConfig config;
    config.nodes = nodes_;
    config.shards = shards_;
    BackendPass pass(dsm, config, options);
    asvm::Machine& machine = pass.machine();
    const MemObjectId region = pass.Time("mappedfs.file_create", [&] {
      return machine.CreateMappedFile("perfbench.dat", static_cast<asvm::VmSize>(pages_),
                                      /*prefilled=*/true);
    });
    std::vector<TaskMemory*> mems = MapAll(pass, region);
    std::vector<uint64_t> expect_read = fill_;
    std::vector<uint64_t> expect_written = written_;
    if (options.corrupt == Corrupt::kFileByte) {
      expect_read[read_word_[0]] ^= 0x100;
      expect_written[static_cast<size_t>(pages_ - 1) * kWordsPerPage] ^= 0x100;
    }

    pass.StartClients();
    for (NodeId n = 1; n < nodes_; ++n) {
      (void)Reader(*mems[n], n, expect_read, pass.log(n));
    }
    pass.Drain();
    for (NodeId n = 1; n < nodes_; ++n) {
      (void)Writer(*mems[n], n, pass.log(n));
    }
    pass.Drain();
    CheckSections(pass, mems, expect_written);
    return pass.Finish();
  }

 private:
  static constexpr int32_t kFileId = 0;
  struct Write {
    uint16_t word;
    uint64_t value;
  };

  std::pair<int, int> Section(NodeId writer) const {
    const int lo = (writer - 1) * section_;
    return {lo, writer == nodes_ - 1 ? pages_ : lo + section_};
  }

  // A read fails unless it returns the file's fill.
  Task Reader(TaskMemory& mem, NodeId node, const std::vector<uint64_t>& expect,
              ClientLog& log) {
    Engine& engine = mem.vm().engine();
    const uint16_t* words = &read_word_[static_cast<size_t>(node - 1) * pages_];
    for (int p = 0; p < pages_; ++p) {
      const size_t word = static_cast<size_t>(p) * kWordsPerPage + words[p];
      uint64_t got = 0;
      const SimTime t0 = engine.Now();
      const Status s = co_await Read8(mem, word * 8, &got);
      log.Record(t0, engine.Now(), asvm::IsOk(s) && got == expect[word]);
    }
    log.finished = true;
  }

  Task Writer(TaskMemory& mem, NodeId node, ClientLog& log) {
    Engine& engine = mem.vm().engine();
    log.finished = false;
    const auto [lo, hi] = Section(node);
    for (int p = lo; p < hi; ++p) {
      for (int k = 0; k < kWritesPerPage; ++k) {
        const Write& w = writes_[static_cast<size_t>(p) * kWritesPerPage + k];
        const VmOffset addr = (static_cast<VmOffset>(p) * kWordsPerPage + w.word) * 8;
        const SimTime t0 = engine.Now();
        const Status s = co_await mem.WriteU64(addr, w.value);
        log.Record(t0, engine.Now(), asvm::IsOk(s));
      }
    }
    log.finished = true;
  }

  // Each section is read back whole on the next reader, which did not write
  // it, and must equal the fill with that section's writes applied.
  void CheckSections(BackendPass& pass, std::vector<TaskMemory*>& mems,
                     const std::vector<uint64_t>& expect) {
    const size_t ps = kWordsPerPage * 8;
    std::vector<std::byte> image(static_cast<size_t>(pages_) * ps);
    std::vector<Status> status(static_cast<size_t>(nodes_), Status::kOk);
    for (NodeId writer = 1; writer < nodes_; ++writer) {
      const NodeId verifier = writer % readers_ + 1;
      const auto [lo, hi] = Section(writer);
      (void)CheckRead(*mems[verifier], static_cast<VmOffset>(lo) * ps,
                      std::span(image).subspan(static_cast<size_t>(lo) * ps,
                                               static_cast<size_t>(hi - lo) * ps),
                      &status[writer]);
    }
    pass.RunChecks();
    for (NodeId writer = 1; writer < nodes_; ++writer) {
      if (!asvm::IsOk(status[writer])) {
        pass.Fail("file: section read-back failed for writer " + std::to_string(writer));
      }
    }
    int64_t wrong = 0;
    for (size_t w = 0; w < expect.size(); ++w) {
      wrong += Word(image, w * 8) != expect[w];
    }
    if (wrong > 0) {
      pass.Fail("file: " + std::to_string(wrong) + " words of the written sections read back wrong");
    }
  }

  int shards_;
  int nodes_;
  int pages_;
  int readers_;
  int section_;
  std::vector<uint16_t> read_word_;  // per reader, per page
  std::vector<Write> writes_;        // per page
  std::vector<uint64_t> fill_;
  std::vector<uint64_t> written_;
};

// --- contention ----------------------------------------------------------------
//
// Every node but node 0 runs a mix of reads and about 30% writes over a few
// pages homed at node 0. Each client owns one word on every page, so the pages
// are falsely shared and almost every operation is a remote fault. The fault
// plan only delays messages (one slowed node, jitter), with retries armed.
//
// Each client writes increasing values to its own words. A read fails when it
// returns a value older than the writer's last write that completed before
// the read was issued, or newer than the writer's last issued write. After
// the mix, every node reads every writer's word on every page and fails on
// anything but the writer's final value.
//
// ASVM fails some of these reads (stale read copies; see CHANGES.md). So that
// the failed share is the same in every run, the operation script and the
// fault plan are fixed; the seed picks the values the clients write.

class ContentionWorkload : public Workload {
 public:
  ContentionWorkload(uint64_t seed, bool quick) {
    nodes_ = quick ? 4 : 16;
    pages_ = quick ? 8 : 32;
    ops_per_client_ = quick ? 300 : 10000;
    asvm::Rng script_rng(kScriptSeed);
    script_.resize(static_cast<size_t>(nodes_));
    for (NodeId c = 1; c < nodes_; ++c) {
      for (int i = 0; i < ops_per_client_; ++i) {
        Op op;
        op.write = script_rng.NextBool(kWriteShare);
        op.page = static_cast<uint16_t>(script_rng.NextBelow(static_cast<uint64_t>(pages_)));
        op.writer = op.write ? static_cast<uint16_t>(c)
                             : static_cast<uint16_t>(1 + script_rng.NextBelow(nodes_ - 1));
        script_[c].push_back(op);
      }
    }
    // Each writer's values start at a seeded base; 0 means never written.
    asvm::Rng value_rng(seed ^ 0xc0deULL);
    base_.resize(static_cast<size_t>(nodes_));
    for (uint64_t& b : base_) {
      b = 1 + (value_rng.NextU64() >> 24);
    }
  }

  BackendResult Run(DsmKind dsm, RunOptions& options) override {
    MachineConfig config;
    config.nodes = nodes_;
    config.fault.seed = kScriptSeed;
    config.fault.max_jitter_ns = 150 * asvm::kMicrosecond;
    config.fault.slow_nodes.push_back({static_cast<NodeId>(nodes_ / 2), 4.0});
    config.retry.timeout_ns = kRetryTimeout;
    config.retry.max_retries = 8;
    BackendPass pass(dsm, config, options);
    asvm::Machine& machine = pass.machine();
    const MemObjectId region = pass.Time("dsm.region_setup", [&] {
      return machine.CreateSharedRegion(/*home=*/0, static_cast<asvm::VmSize>(pages_));
    });
    std::vector<TaskMemory*> mems = MapAll(pass, region);
    slots_.assign(static_cast<size_t>(pages_) * nodes_, Slot{});

    pass.StartClients();
    for (NodeId c = 1; c < nodes_; ++c) {
      (void)Client(*mems[c], c, pass.log(c));
    }
    pass.Drain();
    uint64_t wrong_final = 0;
    if (options.corrupt == Corrupt::kSequence) {
      wrong_final = slot(0, 1).completed + 1;
    }
    for (NodeId n = 0; n < nodes_; ++n) {
      (void)ReadFinal(*mems[n], pass.log(n), wrong_final);
    }
    pass.Drain();
    return pass.Finish();
  }

 private:
  static constexpr uint64_t kScriptSeed = 1;
  static constexpr double kWriteShare = 0.3;
  // With eight retries, no operation exhausts them under XMM's central
  // manager queue, while jittered exchanges still retry.
  static constexpr asvm::SimDuration kRetryTimeout = 20 * asvm::kMillisecond;

  struct Op {
    bool write;
    uint16_t page;
    uint16_t writer;  // whose word a read targets
  };
  struct Slot {
    uint64_t issued = 0;     // the writer's last issued value
    uint64_t completed = 0;  // its last value whose write completed
  };

  VmOffset Addr(int page, NodeId writer) const {
    return static_cast<VmOffset>(page) * 8192 + static_cast<VmOffset>(writer) * 8;
  }
  Slot& slot(int page, NodeId writer) {
    return slots_[static_cast<size_t>(page) * nodes_ + writer];
  }

  Task Client(TaskMemory& mem, NodeId self, ClientLog& log) {
    Engine& engine = mem.vm().engine();
    uint64_t value = base_[self];
    for (const Op& op : script_[self]) {
      if (op.write) {
        Slot& mine = slot(op.page, self);
        mine.issued = ++value;
        const SimTime t0 = engine.Now();
        const Status s = co_await mem.WriteU64(Addr(op.page, self), value);
        log.Record(t0, engine.Now(), asvm::IsOk(s));
        if (asvm::IsOk(s)) {
          mine.completed = value;
        }
      } else {
        const Slot& theirs = slot(op.page, op.writer);
        const uint64_t oldest = theirs.completed;
        uint64_t got = 0;
        const SimTime t0 = engine.Now();
        const Status s = co_await Read8(mem, Addr(op.page, op.writer), &got);
        log.Record(t0, engine.Now(),
                   asvm::IsOk(s) && got >= oldest && got <= theirs.issued);
      }
    }
    log.finished = true;
  }

  // `wrong_final`, when not 0, replaces writer 1's expected final value on
  // page 0: the self-test's wrong sequence number.
  Task ReadFinal(TaskMemory& mem, ClientLog& log, uint64_t wrong_final) {
    Engine& engine = mem.vm().engine();
    log.finished = false;
    for (int p = 0; p < pages_; ++p) {
      for (NodeId w = 1; w < nodes_; ++w) {
        const uint64_t want = (p == 0 && w == 1 && wrong_final != 0) ? wrong_final
                                                                     : slot(p, w).completed;
        uint64_t got = 0;
        const SimTime t0 = engine.Now();
        const Status s = co_await Read8(mem, Addr(p, w), &got);
        log.Record(t0, engine.Now(), asvm::IsOk(s) && got == want);
      }
    }
    log.finished = true;
  }

  int nodes_;
  int pages_;
  int ops_per_client_;
  std::vector<std::vector<Op>> script_;  // per client node
  std::vector<uint64_t> base_;           // per client node
  std::vector<Slot> slots_;              // per page, per writer
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool quick) {
  if (name == "em3d") {
    return std::make_unique<Em3dWorkload>(seed, quick);
  }
  if (name == "file") {
    return std::make_unique<FileWorkload>(seed, quick, /*shards=*/1);
  }
  if (name == "file-sharded") {
    return std::make_unique<FileWorkload>(seed, quick, /*shards=*/2);
  }
  if (name == "contention") {
    return std::make_unique<ContentionWorkload>(seed, quick);
  }
  return nullptr;
}

}  // namespace perfbench
