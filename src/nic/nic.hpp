// The simulated RDMA NIC (ConnectX-class device model).
//
// The NIC owns the protection/registration table, queue pairs and
// completion queues of one host, executes work requests with a calibrated
// cost model (WQE processing, PCIe DMA, wire serialization, ACKs), and
// moves real bytes between registered buffers. It knows nothing about
// kernel bypass vs CoRD: both the user-level driver (bypass) and the
// kernel-level driver (CoRD) drive the same `post_send`/`post_recv`/
// `ring_doorbell` interface — which is exactly the paper's point that the
// two drivers are "largely equivalent, thereby ensuring a lightweight and
// transparently interchangeable layer".
//
// Timing model: a message is pipelined at MTU granularity through three
// FIFO resources — source PCIe DMA, wire direction, destination PCIe
// DMA — using future-dated reservations, so both latency (pipelined) and
// bandwidth (occupancy) are captured without per-packet events.
//
// Documented simplifications vs real RC:
//  * On an RNR NAK only the affected WQE retries; later WQEs are not
//    rolled back. Workloads in this repo pre-post receives, so RNR is an
//    error-handling path, not a steady-state one.
//  * post_recv validates the SGE eagerly (returns EINVAL) instead of
//    failing at message arrival.
//  * Non-inline payloads are copied out of the source buffer at delivery
//    time; applications must keep buffers stable until completion (the
//    same contract real verbs applications obey).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fabric/link.hpp"
#include "nic/config.hpp"
#include "nic/cq.hpp"
#include "nic/icm.hpp"
#include "nic/mr.hpp"
#include "nic/qp.hpp"
#include "nic/types.hpp"
#include "nic/wr_pool.hpp"
#include "sim/engine.hpp"
#include "sim/inline_fn.hpp"
#include "sim/resource.hpp"
#include "sim/slab.hpp"

namespace cord::nic {

class Nic;

/// Maps fabric node ids to NIC instances (the "subnet"). Node ids are
/// small and dense, so this is a flat vector — `find` is one bounds check
/// and an indexed load on the per-message path.
class NicRegistry {
 public:
  void add(Nic& nic);
  Nic* find(NodeId id) const {
    return id < nics_.size() ? nics_[id] : nullptr;
  }

 private:
  std::vector<Nic*> nics_;
};

/// Error codes returned by the post verbs (negative errno convention).
inline constexpr int kOk = 0;
inline constexpr int kErrInvalid = -22;   // EINVAL
inline constexpr int kErrQueueFull = -105;  // ENOBUFS
inline constexpr int kErrState = -107;    // ENOTCONN

struct NicCounters {
  std::uint64_t tx_msgs = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_msgs = 0;
  std::uint64_t rx_bytes = 0;
  // Doorbell/completion batching (see kick/sq_drain_burst/qp_set_error):
  std::uint64_t doorbells = 0;  ///< modeled MMIO doorbell writes
  std::uint64_t doorbells_coalesced = 0;  ///< posts absorbed by an active SQ drain
  std::uint64_t sq_bursts = 0;      ///< SQ drain activations (one per doorbell)
  std::uint64_t sq_burst_wrs = 0;   ///< WRs drained across all activations
  /// Fused SoA drain events: each processed a whole burst of WQEs
  /// (gather → batched MR check → per-WQE segmentation) in one engine
  /// event.
  std::uint64_t sq_fused_batches = 0;
  std::uint64_t seg_msgs = 0;    ///< messages run through MTU segmentation
  std::uint64_t seg_chunks = 0;  ///< MTU chunks those messages produced
  std::uint64_t cqe_flush_batches = 0;  ///< coalesced error-flush events
  std::uint64_t cqe_flushed = 0;        ///< CQEs delivered by those events
};

class Nic {
 public:
  Nic(sim::Engine& engine, fabric::Network& network, NicRegistry& registry,
      NodeId node, const NicConfig& cfg);
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  NodeId node() const { return node_; }
  const NicConfig& config() const { return cfg_; }
  sim::Engine& engine() { return *engine_; }
  const NicCounters& counters() const { return counters_; }

  // --- Control plane (reached through the kernel's ioctl path) ---------
  ProtectionDomainId alloc_pd() { return next_pd_++; }
  const MemoryRegion& register_mr(ProtectionDomainId pd, void* addr,
                                  std::size_t length, std::uint32_t access) {
    return mrs_.register_mr(pd, reinterpret_cast<std::uintptr_t>(addr), length, access);
  }
  bool deregister_mr(std::uint32_t lkey) {
    icm_mr_.erase(lkey);  // lkeys are recycled; a stale hit would be wrong
    return mrs_.deregister_mr(lkey);
  }

  CompletionQueue* create_cq(std::uint32_t capacity);
  QueuePair* create_qp(const QpConfig& cfg);
  void destroy_qp(std::uint32_t qpn);
  /// O(1): qpn/cqn/srqn are allocated sequentially, so lookups index a
  /// dense table (destroyed entries leave null holes).
  QueuePair* find_qp(std::uint32_t qpn) const {
    const std::uint32_t idx = qpn - kFirstQpn;  // wraps for qpn < kFirstQpn
    return idx < qps_.size() ? qps_[idx].get() : nullptr;
  }
  SharedReceiveQueue* create_srq(ProtectionDomainId pd, std::uint32_t capacity);

  /// State transitions; `dest` is required for the RTR transition of RC.
  int modify_qp(QueuePair& qp, QpState target, AddressHandle dest = {});

  /// Force a QP into the error state, flushing outstanding work requests
  /// (used by the kernel to revoke a connection — an OS-control feature).
  void qp_set_error(QueuePair& qp);
  /// As above, with the error surfacing at virtual time `at` (>= now):
  /// the fused burst drain detects errors at a WQE's computed processing
  /// time, which may lie ahead of the event that computed it.
  void qp_set_error(QueuePair& qp, sim::Time at);

  // --- Data plane (reached directly in bypass mode, via syscall in CoRD)
  int post_send(QueuePair& qp, SendWr wr);
  int post_recv(QueuePair& qp, RecvWr wr);
  int post_srq_recv(SharedReceiveQueue& srq, RecvWr wr);

  const MrTable& mr_table() const { return mrs_; }

  /// On-NIC context caches (ICM model, nic/icm.hpp). Disabled (unbounded)
  /// unless NicConfig bounds them; stats feed the `nic.icm.*` gauges.
  const IcmCache& icm_qp_cache() const { return icm_qp_; }
  const IcmCache& icm_mr_cache() const { return icm_mr_; }

 private:
  friend class NicRegistry;

  struct TxTimes {
    sim::Time wire_done = 0;  // last byte arrived at the destination NIC
    sim::Time delivered = 0;  // last byte written to destination memory
  };

  /// The subset of a SendWr that sender-side completion reads: a small
  /// plain-data copy, so completion callbacks need not hold the WR.
  struct SenderMeta {
    std::uint64_t wr_id = 0;
    std::uint32_t trace_span = 0;
    std::uint32_t payload_len = 0;
    Opcode opcode = Opcode::kSend;
    bool signaled = false;
  };
  static SenderMeta meta_of(const SendWr& wr);

  /// One MTU chunk of a UD send at its arrival at the destination NIC.
  /// The sender computes these from its DMA-fetch and wire reservations;
  /// the receiver reserves its DMA writes from them at arrival time.
  struct ChunkArrival {
    sim::Time at = 0;
    std::uint32_t bytes = 0;  ///< payload bytes (sizes the dst DMA write)
  };

  static std::byte* mem(std::uintptr_t addr) {
    return reinterpret_cast<std::byte*>(addr);
  }

  /// Reserve the pipelined resource chain for `bytes` towards `dst`:
  /// per MTU chunk, source DMA fetch, wire, destination DMA write. `at` is
  /// the WQE's processing-done time: >= now, and ahead of now when the
  /// fused burst drain reserves a whole burst from one event.
  TxTimes schedule_chain(Nic& dst, std::uint64_t bytes, bool skip_src_dma,
                         sim::Time at);
  /// The chain without the destination DMA writes (UD sends): returns
  /// each chunk's arrival, from which remote_send_arrival reserves them.
  std::vector<ChunkArrival> schedule_wire(Nic& dst, std::uint64_t bytes,
                                          bool skip_src_dma, sim::Time at);
  /// One chunk's DMA fetch (unless inline) and wire crossing on `hop`,
  /// earliest-started at `at`; returns its arrival at the destination.
  sim::Time reserve_chunk(const fabric::Hop& hop, std::uint32_t chunk,
                          bool skip_src_dma, sim::Time at);

  void kick(QueuePair& qp, std::uint32_t trace_span = 0);
  /// One drain round: runs the fused SoA burst drain, or deactivates the
  /// drain when the SQ is empty or the QP left RTS.
  void sq_resume(std::uint32_t qpn);
  /// Fused drain: gathers the queued WQE descriptors into the SoA burst
  /// scratch, batch-checks MRs, then processes every WQE from this one
  /// event — each WQE's chain reserved at its computed processing-done
  /// time. Schedules one continuation event at the burst's end.
  void sq_drain_burst(QueuePair& qp);
  /// Local protection check a WQE must pass before transmission (inline
  /// and zero-length payloads skip the MR lookup).
  bool wqe_mr_ok(const SendWr& wr, ProtectionDomainId pd) const;
  /// ICM charge for one WQE fetch: base wqe_processing plus the MR-context
  /// miss penalty when the WQE references a memory region (non-inline,
  /// non-empty, protection-checked). Mutates icm_mr_ — call exactly once
  /// per fetch, in queue order.
  sim::Time wqe_fetch_cost(const SendWr& wr, bool mr_ok);
  /// Execute one WQE whose processing pipeline slot ends at `at` (== now
  /// on the RNR retry path; possibly ahead of now from the fused drain). `mr_ok` is
  /// the (possibly batch-computed) wqe_mr_ok verdict; `fetch_cost` the
  /// reserved slot width (wqe_fetch_cost), plumbed through so the trace
  /// records carry the true reservation.
  void process_one(QueuePair& qp, SendWr wr, std::uint32_t rnr_attempts,
                   sim::Time at, bool mr_ok, sim::Time fetch_cost);
  void retry_send(std::uint32_t qpn, WrRef wr, std::uint32_t rnr_attempts);

  void handle_send_arrival(std::uint32_t local_qpn, WrRef wr,
                           Nic& src, std::uint32_t src_qpn, sim::Time delivered,
                           std::uint32_t rnr_attempts, bool reliable);
  void handle_write_arrival(std::uint32_t local_qpn, WrRef wr,
                            Nic& src, std::uint32_t src_qpn, sim::Time delivered,
                            std::uint32_t rnr_attempts);
  void handle_read_request(std::uint32_t local_qpn, WrRef wr,
                           Nic& src, std::uint32_t src_qpn);
  void handle_atomic_request(std::uint32_t local_qpn, WrRef wr,
                             Nic& src, std::uint32_t src_qpn);

  /// UD arrival at the first chunk's arrival time: reserves the
  /// destination DMA writes, re-pools the WR locally and enters
  /// handle_send_arrival (unreliable: no RNR retries).
  void remote_send_arrival(std::uint32_t local_qpn, SendWr wr,
                           std::vector<ChunkArrival> arrivals, Nic& src,
                           std::uint32_t src_qpn, sim::Time posted);

  /// Schedule an ACK/NAK-sized packet back to `dst` and run `fn` when it
  /// has been processed there.
  void send_ctrl(Nic& dst, sim::Time earliest, sim::InlineFn fn);
  /// Success-path ACK: like send_ctrl + sender_complete, but fused into a
  /// single event on the requester at
  ///   ack arrival + ack_processing + cqe_write
  /// — the completion time both forms produce; the two-event form only
  /// computed it across an intermediate hop. Error/NAK/RNR paths keep
  /// send_ctrl, whose callback time anchors their retry/flush clocks.
  void ctrl_complete(Nic& requester, sim::Time earliest,
                     std::uint32_t requester_qpn, SenderMeta m);

  /// Emit the WQE-lifecycle trace records (fetch → DMA → wire → delivery)
  /// for one processed WR. Only called when a tracer is attached; `at` is
  /// the end of the WQE's processing slot (possibly ahead of now).
  void trace_chain(std::uint32_t qpn, const SendWr& wr, const TxTimes& t,
                   NodeId dst_node, std::uint64_t len, sim::Time at,
                   sim::Time fetch_cost);
  /// The fetch-side records only (kWqeFetch, kDmaFetch) — used on the UD
  /// path, where remote_send_arrival emits kWireTx and kDmaDeliver once it
  /// has computed the true wire arrival.
  void trace_fetch(std::uint32_t qpn, const SendWr& wr, std::uint64_t len,
                   sim::Time at, sim::Time fetch_cost);
  /// Summed PCIe occupancy of a payload's MTU chunks (the source-side DMA
  /// service time plumbed into kDmaFetch records).
  sim::Time dma_fetch_time(std::uint64_t len) const;

  void complete_at(sim::Time at, CompletionQueue& cq, Cqe cqe);
  /// Sender-side completion for wr_id on `qpn` (releases the SQ credit;
  /// emits a CQE only if the WR was signaled or failed).
  void sender_complete(std::uint32_t qpn, const SenderMeta& m, WcStatus status,
                       sim::Time at);
  /// The completion itself, executed at the current virtual time (the
  /// body of sender_complete's scheduled event; ctrl_complete posts it
  /// directly at the completion time).
  void sender_complete_now(std::uint32_t qpn, const SenderMeta& m,
                           WcStatus status);
  void sender_complete(std::uint32_t qpn, const SendWr& wr, WcStatus status,
                       sim::Time at) {
    sender_complete(qpn, meta_of(wr), status, at);
  }

  sim::Engine* engine_;
  fabric::Network* network_;
  NicRegistry* registry_;
  NodeId node_;
  NicConfig cfg_;

  sim::Resource processing_;  // WQE/command processing pipeline
  // PCIe is full duplex and the device has independent read/write DMA
  // engines; modelling them as one FIFO would let future-dated write
  // reservations (arrivals) falsely block read reservations (sends) on
  // loopback paths.
  sim::Resource dma_rd_;      // payload fetches (TX side)
  sim::Resource dma_wr_;      // payload deliveries (RX side)

  // qpn/cqn/srqn are handed out sequentially from fixed bases, so the
  // object tables are dense vectors indexed by (n - base): creation
  // appends, destruction nulls the slot, every data-plane lookup is O(1).
  // The objects themselves live on the engine's size-classed slabs
  // (sim::SlabPtr), so objects created together sit adjacent in memory
  // and a burst drain walks contiguous storage.
  static constexpr std::uint32_t kFirstCqn = 1;
  static constexpr std::uint32_t kFirstQpn = 0x100;
  static constexpr std::uint32_t kFirstSrqn = 1;

  MrTable mrs_;
  std::vector<sim::SlabPtr<CompletionQueue>> cqs_;
  std::vector<sim::SlabPtr<QueuePair>> qps_;
  std::vector<sim::SlabPtr<SharedReceiveQueue>> srqs_;
  WrPool wr_pool_;
  ProtectionDomainId next_pd_ = 1;

  /// Struct-of-arrays view of the WQEs at the head of one SQ, rebuilt by
  /// each fused drain event and dead outside it. The gather pass fills
  /// the descriptor columns; the batched protection pass fills mr_ok;
  /// the processing loop then consumes both. Member (not stack) so the
  /// columns' capacity is reused across bursts.
  struct SqBurst {
    std::vector<std::uint8_t> opcode;    // static_cast<uint8_t>(Opcode)
    std::vector<std::uint32_t> len;      // payload bytes
    std::vector<std::uintptr_t> addr;    // sge.addr
    std::vector<std::uint32_t> sge_len;  // sge.length
    std::vector<std::uint32_t> lkey;
    std::vector<std::uint8_t> inline_or_empty;  // skips the MR lookup
    std::vector<std::uint8_t> mr_ok;
    void clear() {
      opcode.clear();
      len.clear();
      addr.clear();
      sge_len.clear();
      lkey.clear();
      inline_or_empty.clear();
      mr_ok.clear();
    }
    std::size_t size() const { return opcode.size(); }
  };
  SqBurst burst_;

  /// On-NIC context caches (ICM model). QP contexts are touched on every
  /// doorbell ring, MR contexts on every MR-referencing WQE fetch; misses
  /// fold icm_miss_latency into the existing reservation timestamps.
  IcmCache icm_qp_;
  IcmCache icm_mr_;

  NicCounters counters_;
};

}  // namespace cord::nic
