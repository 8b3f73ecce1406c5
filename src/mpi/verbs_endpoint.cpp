#include "mpi/verbs_endpoint.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace cord::mpi {

namespace {
std::uintptr_t uptr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }
}  // namespace

VerbsEndpoint::VerbsEndpoint(int rank, int world_size, verbs::Context ctx,
                             Config cfg)
    : rank_(rank),
      world_size_(world_size),
      ctx_(std::move(ctx)),
      cfg_(cfg),
      alarm_(ctx_.core().engine().add_alarm([this] { wake_now(); })) {
  // Parked waits assume every post reaches the NIC at once.
  if (ctx_.options().tx_batch != 1) {
    throw std::invalid_argument(
        "VerbsEndpoint: MPI does not gather sends (tx_batch must be 1)");
  }
  qps_.resize(world_size_, nullptr);
  core().engine().keep_history();
}

VerbsEndpoint::~VerbsEndpoint() {
  core().engine().disarm_alarm(alarm_);
  if (waits_ != nullptr) core().set_observer(nullptr);
  for (nic::CompletionQueue* cq : {scq_, rcq_}) {
    if (cq == nullptr) continue;
    cq->disarm_wait();
    cq->set_wait_handler(nullptr);
  }
}

sim::Task<> VerbsEndpoint::setup() {
  pd_ = co_await ctx_.alloc_pd();
  const std::uint32_t cq_cap = 4 * (cfg_.srq_slots + cfg_.send_slots) + 1024;
  scq_ = co_await ctx_.create_cq(cq_cap);
  rcq_ = co_await ctx_.create_cq(cq_cap);
  const auto on_cqe = [this](nic::CompletionQueue&) { wake_now(); };
  scq_->set_wait_handler(on_cqe);
  rcq_->set_wait_handler(on_cqe);
  srq_ = co_await ctx_.create_srq(pd_, cfg_.srq_slots);

  send_arena_.resize(cfg_.send_slots * slot_size());
  recv_arena_.resize(cfg_.srq_slots * slot_size());
  send_mr_ = co_await ctx_.reg_mr(pd_, send_arena_.data(), send_arena_.size(),
                                  nic::kAccessLocalWrite);
  recv_mr_ = co_await ctx_.reg_mr(pd_, recv_arena_.data(), recv_arena_.size(),
                                  nic::kAccessLocalWrite);
  for (std::uint32_t s = 0; s < cfg_.send_slots; ++s) free_slots_.push_back(s);
  for (std::uint32_t s = 0; s < cfg_.srq_slots; ++s) {
    const int rc = co_await ctx_.post_srq_recv(
        *srq_, {s, {uptr(recv_slot(s)), static_cast<std::uint32_t>(slot_size()),
                    recv_mr_->lkey}});
    if (rc != 0) throw std::runtime_error("SRQ prefill failed");
  }
}

sim::Task<> VerbsEndpoint::wire(VerbsEndpoint& a, VerbsEndpoint& b) {
  const nic::QpConfig qc_a{nic::QpType::kRC, a.pd_,  a.scq_, a.rcq_,
                           256,              0,      220,    a.srq_};
  const nic::QpConfig qc_b{nic::QpType::kRC, b.pd_,  b.scq_, b.rcq_,
                           256,              0,      220,    b.srq_};
  nic::QueuePair* qa = co_await a.ctx_.create_qp(qc_a);
  nic::QueuePair* qb = co_await b.ctx_.create_qp(qc_b);
  if (qa == nullptr || qb == nullptr) throw std::runtime_error("create_qp failed");
  int rc = co_await a.ctx_.connect_qp(*qa, {b.ctx_.node(), qb->qpn()});
  if (rc != 0) throw std::runtime_error("wire: connect a failed");
  rc = co_await b.ctx_.connect_qp(*qb, {a.ctx_.node(), qa->qpn()});
  if (rc != 0) throw std::runtime_error("wire: connect b failed");
  a.qps_[b.rank_] = qa;
  b.qps_[a.rank_] = qb;
  a.qpn_to_peer_[qa->qpn()] = b.rank_;
  b.qpn_to_peer_[qb->qpn()] = a.rank_;
}

sim::Task<std::uint32_t> VerbsEndpoint::acquire_slot() {
  co_await progress_until([&] { return !free_slots_.empty(); }, "acquire_slot");
  const std::uint32_t s = free_slots_.front();
  free_slots_.pop_front();
  co_return s;
}

sim::Task<> VerbsEndpoint::post_with_retry(nic::QueuePair& qp, nic::SendWr wr) {
  for (;;) {
    const int rc = co_await ctx_.post_send(qp, wr);
    if (rc == 0) co_return;
    if (rc != nic::kErrQueueFull) {
      throw std::runtime_error("MPI post_send failed");
    }
    (void)co_await progress_once();  // drain completions to free SQ credits
  }
}

sim::Task<const nic::MemoryRegion*> VerbsEndpoint::get_mr(const void* p,
                                                          std::size_t len) {
  const auto key = std::make_pair(uptr(p), len);
  auto it = mr_cache_.find(key);
  if (it != mr_cache_.end()) co_return it->second;
  const nic::MemoryRegion* mr = co_await ctx_.reg_mr(
      pd_, const_cast<void*>(p), len,
      nic::kAccessLocalWrite | nic::kAccessRemoteRead | nic::kAccessRemoteWrite);
  mr_cache_[key] = mr;
  co_return mr;
}

sim::Task<> VerbsEndpoint::post_slot_message(int dst, const WireHeader& hdr,
                                             std::span<const std::byte> payload) {
  const std::uint32_t slot = co_await acquire_slot();
  std::byte* buf = send_slot(slot);
  std::memcpy(buf, &hdr, sizeof(WireHeader));
  if (!payload.empty()) {
    std::memcpy(buf + sizeof(WireHeader), payload.data(), payload.size());
    // The eager sender-side copy into the bounce buffer.
    co_await core().work(core().memcpy_time(payload.size()), os::Work::kCompute);
  }
  const auto total = static_cast<std::uint32_t>(sizeof(WireHeader) + payload.size());
  nic::SendWr wr;
  wr.wr_id = kSendWrBase + slot;
  wr.opcode = nic::Opcode::kSend;
  wr.sge = {uptr(buf), total, send_mr_->lkey};
  wr.inline_data = total <= qps_[dst]->config().max_inline;
  co_await post_with_retry(*qps_[dst], std::move(wr));
}

sim::Task<> VerbsEndpoint::send(int dst, int tag, std::span<const std::byte> data) {
  if (dst == rank_) {
    // Self-sends do not touch the network (MPI implementations shortcut
    // them in memory even with shared memory disabled).
    wake_now();
    deliver_eager(rank_, tag, data);
    co_await core().work(core().memcpy_time(data.size()), os::Work::kCompute);
    co_return;
  }
  if (data.size() <= cfg_.eager_threshold) {
    WireHeader hdr{kKindEager, tag, data.size(), 0, 0, 0, 0};
    co_await post_slot_message(dst, hdr, data);
    co_return;
  }
  // Rendezvous.
  const nic::MemoryRegion* mr = co_await get_mr(data.data(), data.size());
  const std::uint64_t cookie = next_cookie_++;
  awaiting_fin_.insert(cookie);
  WireHeader hdr{kKindRts, tag, data.size(), cookie, uptr(data.data()), mr->rkey, 0};
  co_await post_slot_message(dst, hdr, {});
  co_await progress_until([&] { return !awaiting_fin_.contains(cookie); },
                          "rendezvous FIN");
}

sim::Task<> VerbsEndpoint::start_pull(PostedRecv& pr, std::uint64_t rts_cookie) {
  const auto key = std::make_pair(pr.src, rts_cookie);
  const RtsInfo info = rts_info_.at(key);
  rts_info_.erase(key);
  const nic::MemoryRegion* mr = co_await get_mr(pr.out.data(), pr.out.size());
  const std::uint64_t wr_id = next_read_wr_++;
  reads_[wr_id] = ReadInFlight{&pr, info.src, rts_cookie, info.size};
  nic::SendWr wr;
  wr.wr_id = wr_id;
  wr.opcode = nic::Opcode::kRdmaRead;
  wr.sge = {uptr(pr.out.data()), static_cast<std::uint32_t>(info.size), mr->lkey};
  wr.remote_addr = info.addr;
  wr.rkey = info.rkey;
  co_await post_with_retry(*qps_[info.src], std::move(wr));
}

sim::Task<> VerbsEndpoint::flush_deferred_fins() {
  while (!deferred_fins_.empty() && !free_slots_.empty()) {
    const DeferredFin fin = deferred_fins_.front();
    deferred_fins_.pop_front();
    WireHeader hdr{kKindFin, 0, 0, fin.cookie, 0, 0, 0};
    co_await post_slot_message(fin.dst, hdr, {});
  }
}

void VerbsEndpoint::ChainPoll::await_suspend(std::coroutine_handle<> h) {
  sim::Time took = 0;
  n = ep.ctx_.poll_now(cq, out, took);
  sim::Engine& engine = ep.core().engine();
  wait.queue_step();
  wait.handle = h;
  engine.schedule_at(engine.now() + took, wait);
}

sim::Task<bool> VerbsEndpoint::progress_from(Stage from, IdleWait* wait) {
  std::array<nic::Cqe, 16> wc;

  // Send-side completions: free bounce slots, finish rendezvous reads.
  std::size_t n = 0;
  if (from == Stage::kSendPoll) {
    if (chains(wait)) {
      n = co_await ChainPoll{*this, *wait, *scq_, wc};
    } else {
      n = co_await ctx_.poll_cq(*scq_, wc);
    }
  }
  // What a pass harvests changes what parked waits of this endpoint wait
  // for, so they step again from here.
  if (n > 0) wake_now();
  for (std::size_t i = 0; i < n; ++i) {
    const nic::Cqe& c = wc[i];
    if (c.status != nic::WcStatus::kSuccess) {
      throw std::runtime_error(std::string("MPI send completion error: ") +
                               std::string(nic::to_string(c.status)));
    }
    if (c.wr_id >= kReadWrBase) {
      auto it = reads_.find(c.wr_id);
      if (it == reads_.end()) throw std::runtime_error("unknown read completion");
      ReadInFlight r = it->second;
      reads_.erase(it);
      r.pr->got = r.size;
      r.pr->done = true;
      deferred_fins_.push_back({r.src, r.cookie});
    } else {
      free_slots_.push_back(static_cast<std::uint32_t>(c.wr_id - kSendWrBase));
    }
  }

  // Receive-side completions: parse eager/RTS/FIN, repost SRQ slots.
  std::size_t m = 0;
  if (from != Stage::kFinish) {
    if (chains(wait)) {
      m = co_await ChainPoll{*this, *wait, *rcq_, wc};
    } else {
      m = co_await ctx_.poll_cq(*rcq_, wc);
    }
  }
  if (m > 0) wake_now();
  for (std::size_t i = 0; i < m; ++i) {
    const nic::Cqe& c = wc[i];
    if (c.status != nic::WcStatus::kSuccess) {
      throw std::runtime_error(std::string("MPI recv completion error: ") +
                               std::string(nic::to_string(c.status)));
    }
    const auto slot = static_cast<std::uint32_t>(c.wr_id);
    const std::byte* buf = recv_slot(slot);
    WireHeader hdr;
    std::memcpy(&hdr, buf, sizeof(WireHeader));
    const auto peer_it = qpn_to_peer_.find(c.qp_num);
    if (peer_it == qpn_to_peer_.end()) throw std::runtime_error("unknown QP");
    const int src = peer_it->second;
    switch (hdr.kind) {
      case kKindEager:
        deliver_eager(src, hdr.tag,
                      {buf + sizeof(WireHeader), static_cast<std::size_t>(hdr.size)});
        break;
      case kKindRts: {
        rts_info_[{src, hdr.cookie}] = RtsInfo{src, hdr.size, hdr.addr, hdr.rkey};
        PostedRecv* pr = deliver_rts({src, hdr.tag, hdr.size, hdr.cookie});
        if (pr != nullptr) co_await start_pull(*pr, hdr.cookie);
        break;
      }
      case kKindFin:
        awaiting_fin_.erase(hdr.cookie);
        break;
      default:
        throw std::runtime_error("corrupt MPI wire header");
    }
    const int rc = co_await ctx_.post_srq_recv(
        *srq_, {slot, {uptr(recv_slot(slot)),
                       static_cast<std::uint32_t>(slot_size()), recv_mr_->lkey}});
    if (rc != 0) throw std::runtime_error("SRQ repost failed");
  }

  // Charge the receive-side copies accrued by deliver_eager.
  if (pending_copy_cost_ > 0) {
    const sim::Time cost = pending_copy_cost_;
    pending_copy_cost_ = 0;
    co_await core().work(cost, os::Work::kCompute);
  }
  co_await flush_deferred_fins();
  co_return n > 0 || m > 0;
}

// --- parked idle waits --------------------------------------------------
//
// park_idle runs the idle passes of Endpoint::progress_until without
// simulating the ones that find nothing. Its first step is real: the
// dispatch in which a pass came back empty. From there on each step of
// the loop — receive-CQ poll, send-CQ poll, backoff — is charged by
// replay(): same costs, kinds and counters, same idle count. A wait is in
// one of two idle states:
//  * parked (Parked::lazy): nothing is queued for it. catch_up() charges
//    its steps, merged in event order with every other parked wait of
//    this endpoint, up to the event that needs them charged. It stays
//    parked while nothing can change what its next steps see;
//  * stepping: one keyed event per step (Engine::schedule_at with the
//    wait's IdleWait as StepKey). At each step replay_step() either
//    charges the step — it misses — or lets the coroutine run it.
// A parked wait starts stepping at its next step, back-dated to the
// instant the loop would have queued it, when a CQE lands in either CQ
// (the CQ wait hook), when the endpoint's state changes (a pass harvests,
// a self-send delivers), when its core is charged for anything but an
// idle step (the core observer), or at the alarm one picosecond past the
// earliest parked deadline, so that the timeout throws at the loop's
// step. Idle steps of other waits on the core only catch it up, so that
// charges reach the core in the loop's order and the DVFS residency comes
// out bit-identical. A stepping wait parks again once both CQs are empty.
//
// Ties. A step runs at `at` and was queued at `queued`. Every poll of a
// wait's progress passes is a keyed step too (ChainPoll), so two steps
// that share both instants order through their chains
// (IdleWait::order): by the dispatch order of the two steps that queued
// them, or by those steps' own queueing instants and so on back — ranks
// that run in lockstep share whole chains. A step that shares both
// instants with an ordinary event cannot be ordered: the engine stops the
// run with std::logic_error (Engine::undecided_ties()).

sim::Task<bool> VerbsEndpoint::parked_pass(IdleWait& wait, DoneFn done) {
  bool progress = co_await progress_from(Stage::kSendPoll, &wait);
  if (!progress) progress = co_await park_idle(wait, done);
  // A wait that ends in its own step takes its chain with it: charge the
  // parked steps that run before that step first, while the chain can
  // still order them.
  const sim::Engine& engine = core().engine();
  if (engine.dispatch_key() == &wait && done()) {
    catch_up(engine.now(), engine.queued_at());
    settled_index_ = engine.dispatch_index();
  }
  co_return progress;
}

sim::Task<bool> VerbsEndpoint::park_idle(IdleWait& wait, DoneFn done) {
  sim::Engine& engine = core().engine();
  Parked p{&wait, {}};
  for (;;) {
    // This dispatch finished a progress pass that found nothing.
    const sim::Time now = engine.now();
    if (++wait.idle > kSpinPolls) {
      const sim::Time b = core().charge(backoff(wait.idle), os::Work::kSpin);
      p.next = {now + b, now, Resume::kAfterBackoff};
    } else {
      wait.check_deadline(now);
      // The loop polls on from here itself when the wait is over or the
      // send CQ has something to harvest.
      if (done() || scq_->depth() > 0) co_return false;
      const sim::Time poll = ctx_.charge_empty_poll();
      p.next = {now + poll, now, Resume::kAfterSendPoll};
    }
    wait.queue_step();
    if (waits_ == nullptr) core().set_observer(this);
    p.next_wait = waits_;
    waits_ = &p;
    do {
      co_await ParkAwaiter{*this, p, done};
    } while (replay_step(p, done));
    for (Parked** w = &waits_; *w != nullptr; w = &(*w)->next_wait) {
      if (*w == &p) {
        *w = p.next_wait;
        break;
      }
    }
    if (waits_ == nullptr) core().set_observer(nullptr);
    // This dispatch runs p.next for real.
    if (p.next.from == Resume::kAfterBackoff) {
      wait.check_deadline(engine.now());
      co_return false;
    }
    const Stage rest = p.next.from == Resume::kAfterSendPoll ? Stage::kRecvPoll
                                                             : Stage::kFinish;
    const bool progress = co_await progress_from(rest, &wait);
    if (progress) co_return true;
  }
}

bool VerbsEndpoint::misses(const Parked& p, DoneFn done) const {
  switch (p.next.from) {
    case Resume::kAfterSendPoll:
      return rcq_->depth() == 0;
    case Resume::kAfterRecvPoll:
      // The rest of the pass must charge and post nothing.
      if (pending_copy_cost_ > 0 || (!deferred_fins_.empty() && !free_slots_.empty())) {
        return false;
      }
      if (p.wait->idle + 1 > kSpinPolls) return true;  // a backoff
      [[fallthrough]];
    case Resume::kAfterBackoff:
      return !throws(p) && !done() && scq_->depth() == 0;
  }
  return false;
}

void VerbsEndpoint::park(Parked& p, DoneFn done) {
  // Park only when every step from here on misses until something wakes
  // the wait: nothing to harvest, nothing left over to charge or post.
  const bool quiet = scq_->depth() == 0 && rcq_->depth() == 0 &&
                     pending_copy_cost_ == 0 &&
                     (deferred_fins_.empty() || free_slots_.empty()) &&
                     !throws(p) && !done();
  if (!quiet) {
    // Queued by this dispatch, which ran the step before it.
    core().engine().schedule_at(p.next.at, *p.wait);
    return;
  }
  if (first_lazy() == nullptr) {
    scq_->arm_wait();
    rcq_->arm_wait();
  }
  p.lazy = true;
  if (p.wait->deadline + 1 < alarm_at_) {
    alarm_at_ = p.wait->deadline + 1;
    core().engine().arm_alarm(alarm_, alarm_at_);
  }
}

bool VerbsEndpoint::throws(const Parked& p) {
  // The loop tests the deadline after a backoff, and after an idle pass
  // that is still within the spin polls.
  const bool checks =
      p.next.from == Resume::kAfterBackoff ||
      (p.next.from == Resume::kAfterRecvPoll && p.wait->idle + 1 <= kSpinPolls);
  return checks && p.next.at > p.wait->deadline;
}

void VerbsEndpoint::replay(Parked& p, std::uint64_t ran_as) {
  Step& s = p.next;
  sim::Time took = 0;
  Resume then = Resume::kAfterSendPoll;
  switch (s.from) {
    case Resume::kAfterSendPoll:
      took = ctx_.charge_empty_poll();  // the receive-CQ poll misses
      then = Resume::kAfterRecvPoll;
      break;
    case Resume::kAfterRecvPoll:
      // The pass found nothing: back off, or poll the send CQ again.
      if (++p.wait->idle > kSpinPolls) {
        took = core().charge(backoff(p.wait->idle), os::Work::kSpin);
        then = Resume::kAfterBackoff;
        break;
      }
      [[fallthrough]];
    case Resume::kAfterBackoff:
      took = ctx_.charge_empty_poll();  // the send-CQ poll misses
      then = Resume::kAfterSendPoll;
      break;
  }
  p.wait->push_queuer({s.at, ran_as});
  s = {s.at + took, s.at, then};
}

bool VerbsEndpoint::replay_step(Parked& p, DoneFn done) {
  if (!misses(p, done)) return false;
  // The step is charged at its own dispatch: parked steps before it first.
  const sim::Engine& engine = core().engine();
  catch_up(engine.now(), engine.queued_at());
  replaying_ = true;
  replay(p, engine.dispatch_index());
  replaying_ = false;
  return true;
}

void VerbsEndpoint::catch_up(sim::Time t, sim::Time queued) {
  replaying_ = true;
  for (;;) {
    Parked* first = first_lazy();
    if (first == nullptr) break;
    const Step& s = first->next;
    if (s.at > t || (s.at == t && s.queued > queued)) break;
    if (s.at == t && s.queued == queued) {
      // Queued at the same instant as the event being dispatched: a step
      // of another wait orders through the chains; an ordinary event
      // cannot be ordered against it (counted: the engine stops the run).
      // A wait of this endpoint that ended in this step settled it.
      sim::Engine& engine = core().engine();
      const sim::StepKey* key = engine.dispatch_key();
      if (key == nullptr) {
        const bool settled = engine.dispatch_is_step() &&
                             settled_index_ == engine.dispatch_index();
        if (!settled) engine.count_undecided_tie();
        break;
      }
      if (first->wait->order(*key) > 0) break;
    }
    if (throws(*first)) {
      replaying_ = false;
      throw std::logic_error("MPI idle wait: a parked wait passed its deadline");
    }
    replay(*first, 0);
  }
  replaying_ = false;
}

void VerbsEndpoint::wake(sim::Time t, sim::Time queued) {
  if (first_lazy() == nullptr) return;
  catch_up(t, queued);
  // In step order, so that same-instant steps of two waits queue in order.
  sim::Engine& engine = core().engine();
  while (Parked* p = first_lazy()) {
    p->lazy = false;
    engine.schedule_at(p->next.at, p->next.queued, *p->wait);
  }
  scq_->disarm_wait();
  rcq_->disarm_wait();
  engine.disarm_alarm(alarm_);
  alarm_at_ = kNoAlarm;
}

VerbsEndpoint::Parked* VerbsEndpoint::first_lazy() const {
  Parked* first = nullptr;
  for (Parked* p = waits_; p != nullptr; p = p->next_wait) {
    if (p->lazy && (first == nullptr || step_before(*p, *first))) first = p;
  }
  return first;
}

void VerbsEndpoint::wake_now() {
  const sim::Engine& engine = core().engine();
  wake(engine.now(), engine.queued_at());
}

void VerbsEndpoint::before_charge(os::Work kind) {
  if (replaying_) return;
  const sim::Engine& engine = core().engine();
  if (kind == os::Work::kSpin) {
    catch_up(engine.now(), engine.queued_at());
  } else {
    wake(engine.now(), engine.queued_at());
  }
}

bool VerbsEndpoint::step_before(const Parked& a, const Parked& b) {
  if (a.next.at != b.next.at) return a.next.at < b.next.at;
  if (a.next.queued != b.next.queued) return a.next.queued < b.next.queued;
  return a.wait->order(*b.wait) < 0;
}

}  // namespace cord::mpi

