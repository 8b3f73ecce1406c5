// MPI endpoint over the verbs API — the architecture of real MPI-over-
// RDMA stacks (MVAPICH/Open MPI UCX):
//
//  * full mesh of RC queue pairs, one per peer, sharing one send CQ, one
//    recv CQ and one SRQ per rank;
//  * eager protocol for small messages: sender copies into a registered
//    bounce slot, receiver consumes SRQ slots and copies out (or buffers
//    unexpected);
//  * rendezvous for large messages: sender registers the user buffer
//    (registration cache) and sends an RTS; the receiver pulls the data
//    with one RDMA READ straight into the destination buffer (zero-copy)
//    and returns a FIN.
//
// Because every data-plane verb goes through the rank's verbs::Context,
// switching the whole MPI stack between bypass and CoRD is the one-line
// mode change the paper advertises.
//
// Idle waits park (DESIGN.md §20): when a progress pass finds nothing,
// the waiting coroutine stops simulating its polls and backoffs. It
// charges them, in order and on the same counters, when something could
// observe them — a CQE arriving, another charge on its core, a change of
// the endpoint's state, or its deadline — and then resumes at the next
// step it would have taken, ordered against other events as that step
// would have been. Kernel-routed polls (CoRD with poll_via_kernel) keep
// stepping: each one is a modelled syscall.
#pragma once

#include <coroutine>
#include <map>
#include <memory>
#include <set>

#include "mpi/endpoint.hpp"
#include "verbs/verbs.hpp"

namespace cord::mpi {

class VerbsEndpoint final : public Endpoint, private os::ChargeObserver {
 public:
  struct Config {
    std::size_t eager_threshold = 4096;
    std::uint32_t send_slots = 64;
    std::uint32_t srq_slots = 1024;
  };

  VerbsEndpoint(int rank, int world_size, verbs::Context ctx, Config cfg);
  ~VerbsEndpoint() override;
  VerbsEndpoint(const VerbsEndpoint&) = delete;
  VerbsEndpoint& operator=(const VerbsEndpoint&) = delete;

  int rank() const override { return rank_; }
  int world_size() const override { return world_size_; }
  os::Core& core() override { return ctx_.core(); }
  verbs::Context& context() { return ctx_; }

  /// Allocate PD/CQs/SRQ/bounce buffers and pre-post the SRQ.
  sim::Task<> setup();
  /// Create and connect the RC queue pairs of one rank pair (both sides).
  static sim::Task<> wire(VerbsEndpoint& a, VerbsEndpoint& b);

  sim::Task<> send(int dst, int tag, std::span<const std::byte> data) override;
  sim::Task<bool> progress_once() override {
    return progress_from(Stage::kSendPoll, nullptr);
  }

 private:
  /// Where a progress pass starts: at the send-CQ poll (a whole pass), at
  /// the receive-CQ poll, or after both polls. Passes of a progress_until
  /// wait queue their polls as steps of the wait's chain.
  enum class Stage : std::uint8_t { kSendPoll, kRecvPoll, kFinish };
  sim::Task<bool> progress_from(Stage from, IdleWait* wait);

  // --- parked idle waits ---------------------------------------------------
  /// Where an idle wait's next step resumes it: after its send-CQ poll,
  /// after its receive-CQ poll, or after its backoff.
  enum class Resume : std::uint8_t { kAfterSendPoll, kAfterRecvPoll, kAfterBackoff };
  /// One step of an idle wait as the step-by-step loop would queue it: it
  /// runs at `at`, queued by the step at `queued`.
  struct Step {
    sim::Time at = 0;
    sim::Time queued = 0;
    Resume from = Resume::kAfterBackoff;
  };
  /// An idle wait: its coroutine, its loop state and chain (in `wait`) and
  /// its next step. It lives in the waiting coroutine's frame.
  struct Parked {
    IdleWait* wait;
    Step next;
    bool lazy = false;  // parked: no event queued for it
    Parked* next_wait = nullptr;  // the endpoint's list of idle waits
  };
  /// The first parked (lazy) wait whose next step runs first, or nullptr.
  Parked* first_lazy() const;
  /// Whether `a`'s next step runs before `b`'s.
  static bool step_before(const Parked& a, const Parked& b);
  struct ParkAwaiter {
    VerbsEndpoint& ep;
    Parked& p;
    DoneFn done;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      p.wait->handle = h;
      ep.park(p, done);
    }
    void await_resume() const {
      p.wait->resumed_index = ep.core().engine().dispatch_index();
    }
  };
  /// A poll_cq of an idle wait's progress pass, queued as the next step
  /// of the wait's chain (user-space polls with no gathered sends only).
  struct ChainPoll {
    VerbsEndpoint& ep;
    IdleWait& wait;
    nic::CompletionQueue& cq;
    std::span<nic::Cqe> out;
    std::size_t n = 0;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    std::size_t await_resume() const {
      wait.resumed_index = ep.core().engine().dispatch_index();
      return n;
    }
  };
  bool chains(const IdleWait* wait) const {
    return wait != nullptr && !ctx_.polls_in_kernel();
  }

  /// Kernel-routed polls step through Endpoint::wait_pass; user-space
  /// polls run parked_pass.
  sim::Task<bool> wait_pass(IdleWait& wait, DoneFn done) override {
    if (ctx_.polls_in_kernel()) return Endpoint::wait_pass(wait, done);
    return parked_pass(wait, done);
  }
  sim::Task<bool> parked_pass(IdleWait& wait, DoneFn done);
  /// Runs the idle passes after a progress pass that found nothing,
  /// without simulating the ones that find nothing either; returns once
  /// the loop should test `done` again, and whether progress was made.
  sim::Task<bool> park_idle(IdleWait& wait, DoneFn done);
  /// Queue `p`'s next step, or park `p` when nothing can make it hit.
  void park(Parked& p, DoneFn done);
  /// Whether `p`'s next step, run now, would find nothing and change
  /// nothing.
  bool misses(const Parked& p, DoneFn done) const;
  /// Whether `p`'s next step is the one that throws the wait's timeout.
  static bool throws(const Parked& p);
  /// Charge `p`'s next step and advance to the one after it; `ran_as` is
  /// the dispatch running the step, 0 when it only is replayed.
  void replay(Parked& p, std::uint64_t ran_as);
  /// At `p`'s step: charge it if it misses (true), else leave it to run.
  bool replay_step(Parked& p, DoneFn done);
  /// Charge every parked step that runs before the event at (t, queued).
  void catch_up(sim::Time t, sim::Time queued);
  /// catch_up, then queue every parked wait's next step.
  void wake(sim::Time t, sim::Time queued);
  void wake_now();
  void before_charge(os::Work kind) override;

  struct WireHeader {
    std::uint32_t kind = 0;  // 0 eager, 1 rts, 2 fin
    std::int32_t tag = 0;
    std::uint64_t size = 0;
    std::uint64_t cookie = 0;
    std::uint64_t addr = 0;
    std::uint32_t rkey = 0;
    std::uint32_t pad = 0;
  };
  static constexpr std::uint32_t kKindEager = 0;
  static constexpr std::uint32_t kKindRts = 1;
  static constexpr std::uint32_t kKindFin = 2;
  static constexpr std::uint64_t kSendWrBase = 1ull << 20;
  static constexpr std::uint64_t kReadWrBase = 1ull << 21;

  struct RtsInfo {
    int src = 0;
    std::uint64_t size = 0;
    std::uint64_t addr = 0;
    std::uint32_t rkey = 0;
  };
  struct ReadInFlight {
    PostedRecv* pr = nullptr;
    int src = 0;
    std::uint64_t cookie = 0;
    std::uint64_t size = 0;
  };
  struct DeferredFin {
    int dst = 0;
    std::uint64_t cookie = 0;
  };

  sim::Task<> start_pull(PostedRecv& pr, std::uint64_t rts_cookie) override;

  std::size_t slot_size() const { return cfg_.eager_threshold + sizeof(WireHeader); }
  std::byte* send_slot(std::uint32_t s) { return send_arena_.data() + s * slot_size(); }
  std::byte* recv_slot(std::uint32_t s) { return recv_arena_.data() + s * slot_size(); }

  sim::Task<std::uint32_t> acquire_slot();
  sim::Task<> post_with_retry(nic::QueuePair& qp, nic::SendWr wr);
  sim::Task<const nic::MemoryRegion*> get_mr(const void* p, std::size_t len);
  /// Post an eager-protocol control/payload message from a bounce slot.
  sim::Task<> post_slot_message(int dst, const WireHeader& hdr,
                                std::span<const std::byte> payload);
  sim::Task<> flush_deferred_fins();

  int rank_;
  int world_size_;
  verbs::Context ctx_;
  Config cfg_;

  nic::ProtectionDomainId pd_ = 0;
  nic::CompletionQueue* scq_ = nullptr;
  nic::CompletionQueue* rcq_ = nullptr;
  nic::SharedReceiveQueue* srq_ = nullptr;
  std::vector<nic::QueuePair*> qps_;          // by peer rank
  std::map<std::uint32_t, int> qpn_to_peer_;  // local qpn -> peer rank

  std::vector<std::byte> send_arena_;
  std::vector<std::byte> recv_arena_;
  const nic::MemoryRegion* send_mr_ = nullptr;
  const nic::MemoryRegion* recv_mr_ = nullptr;
  std::deque<std::uint32_t> free_slots_;

  std::map<std::pair<std::uintptr_t, std::size_t>, const nic::MemoryRegion*>
      mr_cache_;
  // Keyed by (source rank, sender-local cookie): cookies are only
  // unique per sender.
  std::map<std::pair<int, std::uint64_t>, RtsInfo> rts_info_;
  std::map<std::uint64_t, ReadInFlight> reads_;  // wr_id -> read
  std::set<std::uint64_t> awaiting_fin_;
  std::deque<DeferredFin> deferred_fins_;
  std::uint64_t next_cookie_ = 1;
  std::uint64_t next_read_wr_ = kReadWrBase;

  Parked* waits_ = nullptr;  // idle waits, parked or stepping (a list)
  bool replaying_ = false;
  // The dispatch in which a wait of this endpoint ended during its own
  // step, after catching up the parked steps that run before it.
  std::uint64_t settled_index_ = 0;
  sim::Engine::AlarmId alarm_;  // the parked waits' earliest deadline + 1
  sim::Time alarm_at_ = kNoAlarm;
  static constexpr sim::Time kNoAlarm = INT64_MAX;
};

}  // namespace cord::mpi
