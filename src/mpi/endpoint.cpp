#include "mpi/endpoint.hpp"

#include <cstring>

namespace cord::mpi {

sim::Task<std::size_t> Endpoint::recv(int src, int tag, std::span<std::byte> out) {
  // 1. Already-arrived eager message?
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (it->src == src && it->tag == tag) {
      if (it->data.size() > out.size()) {
        throw std::runtime_error("MPI recv truncation (unexpected path)");
      }
      const std::size_t n = it->data.size();
      std::memcpy(out.data(), it->data.data(), n);
      co_await core().work(core().memcpy_time(n), os::Work::kCompute);
      unexpected_.erase(it);
      co_return n;
    }
  }
  // 2. Already-announced rendezvous?
  for (auto it = pending_rts_.begin(); it != pending_rts_.end(); ++it) {
    if (it->src == src && it->tag == tag) {
      PendingRts rts = *it;
      pending_rts_.erase(it);
      if (rts.size > out.size()) {
        throw std::runtime_error("MPI recv truncation (rendezvous path)");
      }
      PostedRecv pr{src, tag, out, 0, true, false};
      posted_.push_back(&pr);
      co_await start_pull(pr, rts.cookie);
      co_await progress_until([&] { return pr.done; }, "recv (rendezvous)");
      posted_.remove(&pr);
      co_return pr.got;
    }
  }
  // 3. Post and wait.
  PostedRecv pr{src, tag, out, 0, false, false};
  posted_.push_back(&pr);
  co_await progress_until([&] { return pr.done; }, "recv (posted)");
  posted_.remove(&pr);
  co_return pr.got;
}

void Endpoint::deliver_eager(int src, int tag, std::span<const std::byte> payload) {
  for (PostedRecv* pr : posted_) {
    if (!pr->matched && pr->src == src && pr->tag == tag) {
      if (payload.size() > pr->out.size()) {
        throw std::runtime_error("MPI recv truncation (eager delivery)");
      }
      std::memcpy(pr->out.data(), payload.data(), payload.size());
      pr->got = payload.size();
      pr->matched = true;
      pr->done = true;
      pending_copy_cost_ += core().memcpy_time(payload.size());
      return;
    }
  }
  UnexpectedMsg msg{src, tag, {payload.begin(), payload.end()}};
  pending_copy_cost_ += core().memcpy_time(payload.size());
  unexpected_.push_back(std::move(msg));
}

sim::Task<bool> Endpoint::wait_pass(IdleWait& wait, DoneFn done) {
  (void)done;
  // Not `if (co_await ...) co_return`: GCC 12 then resumes this frame
  // after its final suspend.
  const bool progress = co_await progress_once();
  if (progress) co_return true;
  if (++wait.idle > kSpinPolls) {
    co_await core().work(backoff(wait.idle), os::Work::kSpin);
  }
  wait.check_deadline(core().engine().now());
  co_return false;
}

Endpoint::IdleWait::IdleWait(Endpoint& owner, sim::Time deadline, const char* what)
    : owner(&owner), engine(&owner.core().engine()), deadline(deadline), what(what) {
  if (!owner.spare_chains_.empty()) {
    chain_ = std::move(owner.spare_chains_.back());
    owner.spare_chains_.pop_back();
  }
}

Endpoint::IdleWait::~IdleWait() {
  engine->forget_key(this);
  chain_.clear();
  owner->spare_chains_.push_back(std::move(chain_));
}

void Endpoint::IdleWait::push_queuer(Queuer q) {
  if (chain_.size() == kMaxChain) {
    const auto keep = chain_.begin() + kMaxChain / 2;
    origin_queued = (keep - 1)->at;
    chain_.erase(chain_.begin(), keep);
  }
  chain_.push_back(q);
}

int Endpoint::IdleWait::order(const sim::StepKey& other) const {
  const auto* o = dynamic_cast<const IdleWait*>(&other);
  if (o == nullptr) return 0;
  // Both steps were queued at the same instant, each by its chain's
  // queuer: they run in the order of those two dispatches. Dispatches
  // that ran are in dispatch order; otherwise they ran in the order of
  // their own queueing instants (the instants of the queuers below them),
  // and of those queuers' order after that, down to the origins: ordinary
  // dispatches, so in dispatch order too.
  std::size_t a = chain_.size() - 1;
  std::size_t b = o->chain_.size() - 1;
  for (;;) {
    const Queuer& qa_now = chain_[a];
    const Queuer& qb_now = o->chain_[b];
    if (qa_now.index != 0 && qb_now.index != 0) {
      return qa_now.index < qb_now.index ? -1 : 1;
    }
    // Queueing instants of the two queuers: the entries below them.
    const sim::Time qa = a > 0 ? chain_[a - 1].at : origin_queued;
    const sim::Time qb = b > 0 ? o->chain_[b - 1].at : o->origin_queued;
    if (qa != qb) return qa < qb ? -1 : 1;
    // One of them is an origin, queued by an ordinary event whose order
    // against a step that never ran is unknown, or the oldest entry kept.
    if (a == 0 || b == 0) break;
    --a;
    --b;
  }
  // Unknown: counted, which stops the run; a fixed order until then.
  engine->count_undecided_tie();
  const int ra = owner->rank();
  const int rb = o->owner->rank();
  if (ra != rb) return ra < rb ? -1 : 1;
  return origin_queued < o->origin_queued ? -1 : 1;
}

Endpoint::PostedRecv* Endpoint::deliver_rts(PendingRts rts) {
  for (PostedRecv* pr : posted_) {
    if (!pr->matched && pr->src == rts.src && pr->tag == rts.tag) {
      if (rts.size > pr->out.size()) {
        throw std::runtime_error("MPI recv truncation (RTS delivery)");
      }
      pr->matched = true;
      return pr;
    }
  }
  pending_rts_.push_back(rts);
  return nullptr;
}

}  // namespace cord::mpi
