// Transport-neutral MPI-style endpoint: tag matching, unexpected-message
// queues, and the posted-receive registry. Concrete endpoints (verbs,
// sockets) implement send() and the progress function; the matching logic
// here is shared.
//
// Semantics implemented (the subset NPB needs):
//  * point-to-point ordered delivery per (source, destination) pair;
//  * matching on exact (source, tag);
//  * eager messages buffer on the receiver if unexpected (with the copy
//    charged), rendezvous messages transfer zero-copy once matched.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "os/cpu.hpp"
#include "sim/task.hpp"

namespace cord::mpi {

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  virtual int rank() const = 0;
  virtual int world_size() const = 0;
  virtual os::Core& core() = 0;

  /// Blocking-buffered send (returns once the payload is handed to the
  /// transport; large messages block until the receiver has pulled them).
  virtual sim::Task<> send(int dst, int tag, std::span<const std::byte> data) = 0;

  /// Blocking receive into `out`; returns the message size. Throws on
  /// truncation (message larger than `out`).
  sim::Task<std::size_t> recv(int src, int tag, std::span<std::byte> out);

  /// Drive the transport once (poll queues, dispatch arrivals). Returns
  /// whether anything happened. Waiting loops call this repeatedly; it
  /// must always consume virtual time.
  virtual sim::Task<bool> progress_once() = 0;

  /// Poll progress until `done()` holds. After kSpinPolls idle passes in a
  /// row, each idle pass adds a spin backoff of 25 ns per idle pass
  /// (capped at 20 us): the modelled poll-coarsening of an MPI progress
  /// engine, which costs at most ~20 us of detection latency on long
  /// waits (simulating the idle passes as events is the endpoint's
  /// choice: VerbsEndpoint parks them). A virtual-time deadline turns
  /// workload deadlocks into exceptions.
  template <typename Pred>
  sim::Task<> progress_until(Pred&& done, const char* what) {
    IdleWait wait(*this, core().engine().now() + kProgressTimeout, what);
    while (!done()) {
      const bool progressed = co_await wait_pass(wait, DoneFn(done));
      if (progressed) wait.idle = 0;
    }
  }

 protected:
  /// The state of one progress_until wait. An endpoint that queues the
  /// wait's poll steps as keyed steps (VerbsEndpoint) keeps their chain
  /// here (sim::StepKey): the dispatches that queued each step, from the
  /// ordinary dispatch that queued the first (the origin, whose own
  /// queueing instant closes the chain) to the one that queued the next.
  /// Chains are reused from wait to wait, and keep their newest
  /// kMaxChain entries.
  struct IdleWait final : sim::StepKey {
    struct Queuer {
      sim::Time at = 0;
      std::uint64_t index = 0;  // Engine::dispatch_index, 0: only replayed
    };
    IdleWait(Endpoint& owner, sim::Time deadline, const char* what);
    IdleWait(const IdleWait&) = delete;
    IdleWait& operator=(const IdleWait&) = delete;
    ~IdleWait();

    void check_deadline(sim::Time now) const {
      if (now > deadline) {
        throw std::runtime_error(std::string("MPI progress timed out: ") + what);
      }
    }
    /// The dispatch running now queues the chain's next step.
    void queue_step() {
      if (engine->dispatch_index() != resumed_index) {
        chain_.clear();
        origin_queued = engine->queued_at();
      }
      push_queuer({engine->now(), engine->dispatch_index()});
    }
    void push_queuer(Queuer q);
    /// Two steps queued at the same instant run in the order of the steps
    /// that queued them, and so on back; see endpoint.cpp.
    int order(const sim::StepKey& other) const override;

    /// Longest chain kept (64 KiB). Two chains are compared back only as
    /// far as they share instants (281 steps at most over fig6_npb), and
    /// dropping older entries makes a comparison that reaches them
    /// undecided. A long wait replays ~150,000 steps a second.
    static constexpr std::size_t kMaxChain = 4096;

    Endpoint* owner;
    sim::Engine* engine;
    sim::Time deadline;
    const char* what;
    int idle = 0;  // progress passes in a row that found nothing
    // Queueing instant of the chain's oldest entry (the origin's, unless
    // older entries were dropped).
    sim::Time origin_queued = 0;
    std::uint64_t resumed_index = 0;  // the dispatch that ran its last step

   private:
    std::vector<Queuer> chain_;  // oldest first
  };
  /// A wait's predicate, by reference (it lives in the waiting frame).
  class DoneFn {
   public:
    template <typename Pred>
    explicit DoneFn(const Pred& pred)
        : pred_(&pred), call_([](const void* p) {
            return static_cast<bool>((*static_cast<const Pred*>(p))());
          }) {}
    bool operator()() const { return call_(pred_); }

   private:
    const void* pred_;
    bool (*call_)(const void*);
  };

  /// Idle passes before the backoff starts, and the backoff after `idle`
  /// idle passes in a row.
  static constexpr int kSpinPolls = 64;
  static sim::Time backoff(int idle) {
    return std::min<sim::Time>(sim::ns(25) * idle, sim::us(20));
  }

  /// One pass of progress_until's loop; returns whether it made progress.
  /// This one runs progress_once and, when that finds nothing, the idle
  /// pass's backoff and deadline check, each as events. An endpoint may
  /// run its idle passes differently, but they must come out exactly
  /// like these.
  virtual sim::Task<bool> wait_pass(IdleWait& wait, DoneFn done);

  struct PostedRecv {
    int src = 0;
    int tag = 0;
    std::span<std::byte> out;
    std::size_t got = 0;
    bool matched = false;  // a transfer is in flight for this recv
    bool done = false;
  };
  struct UnexpectedMsg {
    int src = 0;
    int tag = 0;
    std::vector<std::byte> data;
  };

  /// Implementation hook: an RTS for a rendezvous transfer matched a
  /// posted receive — start pulling `size` bytes. `rts_cookie` identifies
  /// the transfer to the concrete endpoint.
  virtual sim::Task<> start_pull(PostedRecv& pr, std::uint64_t rts_cookie) = 0;

  /// Called by implementations when an eager payload arrives.
  /// Returns the core-time cost (copy) which the caller must charge.
  void deliver_eager(int src, int tag, std::span<const std::byte> payload);

  /// Called by implementations when a rendezvous announcement arrives.
  struct PendingRts {
    int src = 0;
    int tag = 0;
    std::uint64_t size = 0;
    std::uint64_t cookie = 0;
  };
  /// Returns the matched posted receive (caller then invokes start_pull),
  /// or nullptr if the RTS is stored as pending.
  PostedRecv* deliver_rts(PendingRts rts);

  /// Deadlock guard: a blocking operation that makes no progress for this
  /// much virtual time indicates a hung workload and throws.
  static constexpr sim::Time kProgressTimeout = sim::sec(5);

  std::list<PostedRecv*> posted_;
  std::vector<std::vector<IdleWait::Queuer>> spare_chains_;  // for IdleWait
  std::deque<UnexpectedMsg> unexpected_;
  std::deque<PendingRts> pending_rts_;
  /// Copy cost accrued by deliveries inside progress; drained and charged
  /// by the progress loop.
  sim::Time pending_copy_cost_ = 0;
};

}  // namespace cord::mpi
