#include "minimpi/comm.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

namespace unimem::mpi {

namespace {

struct Message {
  std::vector<std::byte> data;
  double send_vt = 0;
};

/// One reusable rendezvous for collectives.  Two slots alternate (ping-pong
/// by collective sequence parity); a slot is reusable only after all ranks
/// of the previous collective that used it have exited, so a fast rank can
/// never corrupt a slow rank's copy-out.
struct CollSlot {
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t seq = ~0ull;  ///< collective number currently served
  int arrived = 0;
  int exited = 0;
  bool done = false;
  bool idle = true;
  double max_vt = 0;
  /// Per-rank contribution staging (reduced in rank order => deterministic).
  std::vector<std::vector<std::byte>> contrib;
  std::vector<std::byte> result;
};

}  // namespace

struct World::Impl {
  std::mutex mail_mu;
  std::condition_variable mail_cv;
  // (src, dst, tag) -> FIFO of messages.
  std::map<std::tuple<int, int, int>, std::deque<Message>> mailboxes;
  CollSlot slots[2];
  // Per-rank collective sequence numbers (SPMD: all ranks issue the same
  // collectives in the same order).
  std::vector<std::uint64_t> coll_seq;
};

// ---------------------------------------------------------------------------
// World

World::World(int nranks, NetworkParams net, int ranks_per_node)
    : nranks_(nranks),
      ranks_per_node_(std::max(1, ranks_per_node)),
      net_(net),
      impl_(std::make_unique<Impl>()) {
  if (nranks < 1) throw std::invalid_argument("World: nranks must be >= 1");
  impl_->coll_seq.assign(nranks, 0);
  comms_.reserve(nranks);
  for (int r = 0; r < nranks; ++r)
    comms_.push_back(std::unique_ptr<Comm>(new Comm(this, r)));
}

World::~World() = default;

void World::run(const std::function<void(Comm&)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(nranks_);
  threads.reserve(nranks_);
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(*comms_[r]);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

// ---------------------------------------------------------------------------
// Comm basics

Comm::Comm(World* world, int rank) : world_(world), rank_(rank) {}

int Comm::size() const { return world_->size(); }

int Comm::node() const { return rank_ / world_->ranks_per_node(); }

void Comm::pre(const OpInfo& info) {
  ++op_count_;
  if (hooks_ != nullptr) hooks_->on_pre_op(info);
}

void Comm::post(const OpInfo& info) {
  if (hooks_ != nullptr) hooks_->on_post_op(info);
}

// ---------------------------------------------------------------------------
// Collective engine

namespace {

/// Generic collective rendezvous.  `contribute` copies this rank's input
/// into its staging slice; `finalize` (run once, by the last arriver, with
/// contributions ordered by rank) builds the shared result; `copy_out`
/// extracts this rank's output.  Any of them may be empty functions.
template <typename Contribute, typename Finalize, typename CopyOut>
void run_collective(World::Impl& w, int nranks, int rank, std::uint64_t seq,
                    clk::VirtualClock& clock, double cost,
                    Contribute contribute, Finalize finalize,
                    CopyOut copy_out) {
  CollSlot& slot = w.slots[seq % 2];
  std::unique_lock<std::mutex> lk(slot.mu);
  // Wait until the slot serves `seq` or is free to be claimed for it.
  slot.cv.wait(lk, [&] { return slot.seq == seq || slot.idle; });
  if (slot.idle) {
    slot.idle = false;
    slot.seq = seq;
    slot.arrived = 0;
    slot.exited = 0;
    slot.done = false;
    slot.max_vt = 0;
    slot.contrib.assign(nranks, {});
    slot.result.clear();
  }
  contribute(slot.contrib[rank]);
  slot.max_vt = std::max(slot.max_vt, clock.now());
  if (++slot.arrived == nranks) {
    finalize(slot.contrib, slot.result);
    slot.done = true;
    slot.cv.notify_all();
  } else {
    slot.cv.wait(lk, [&] { return slot.done && slot.seq == seq; });
  }
  copy_out(slot.result);
  clock.wait_until(slot.max_vt + cost);
  if (++slot.exited == nranks) {
    slot.idle = true;  // reusable for seq+2
    slot.cv.notify_all();
  }
}

void reduce_in_place(std::vector<std::byte>& acc,
                     const std::vector<std::byte>& in, ReduceOp op) {
  auto* a = reinterpret_cast<double*>(acc.data());
  auto* b = reinterpret_cast<const double*>(in.data());
  std::size_t n = acc.size() / sizeof(double);
  for (std::size_t i = 0; i < n; ++i) {
    switch (op) {
      case ReduceOp::kSum: a[i] += b[i]; break;
      case ReduceOp::kMax: a[i] = std::max(a[i], b[i]); break;
      case ReduceOp::kMin: a[i] = std::min(a[i], b[i]); break;
    }
  }
}

}  // namespace

void Comm::allreduce(double* buf, std::size_t n, ReduceOp op) {
  const std::size_t bytes = n * sizeof(double);
  OpInfo info{OpKind::kAllreduce, -1, bytes, buf, bytes, buf, bytes};
  pre(info);
  std::uint64_t seq = world_->impl_->coll_seq[rank_]++;
  const int p = size();
  run_collective(
      *world_->impl_, p, rank_, seq, clock_,
      world_->network().collective_cost(bytes, p),
      [&](std::vector<std::byte>& mine) {
        mine.resize(bytes);
        std::memcpy(mine.data(), buf, bytes);
      },
      [&](std::vector<std::vector<std::byte>>& contrib,
          std::vector<std::byte>& result) {
        result = contrib[0];
        for (int r = 1; r < p; ++r) reduce_in_place(result, contrib[r], op);
      },
      [&](const std::vector<std::byte>& result) {
        std::memcpy(buf, result.data(), bytes);
      });
  post(info);
}

// ---------------------------------------------------------------------------
// Point-to-point

void Comm::push_message(int dst, int tag, const void* buf, std::size_t bytes) {
  auto& impl = *world_->impl_;
  Message m;
  m.data.resize(bytes);
  if (bytes > 0) std::memcpy(m.data.data(), buf, bytes);
  m.send_vt = clock_.now();
  {
    std::lock_guard<std::mutex> lk(impl.mail_mu);
    impl.mailboxes[{rank_, dst, tag}].push_back(std::move(m));
  }
  impl.mail_cv.notify_all();
  // Eager-send overhead on the sender.
  clock_.advance(world_->network().alpha_s);
}

void Comm::pop_message(int src, int tag, void* buf, std::size_t bytes) {
  auto& impl = *world_->impl_;
  Message m;
  {
    std::unique_lock<std::mutex> lk(impl.mail_mu);
    auto key = std::make_tuple(src, rank_, tag);
    impl.mail_cv.wait(lk, [&] {
      auto it = impl.mailboxes.find(key);
      return it != impl.mailboxes.end() && !it->second.empty();
    });
    auto& q = impl.mailboxes[key];
    m = std::move(q.front());
    q.pop_front();
  }
  if (m.data.size() != bytes)
    throw std::runtime_error("minimpi: recv size mismatch");
  if (bytes > 0) std::memcpy(buf, m.data.data(), bytes);
  // The message is available no earlier than send time + wire cost.
  clock_.wait_until(m.send_vt + world_->network().p2p_cost(bytes));
}

void Comm::sendrecv(const void* sbuf, std::size_t sbytes, int dst, void* rbuf,
                    std::size_t rbytes, int src, int tag) {
  OpInfo info{OpKind::kSendrecv, dst, sbytes + rbytes,
              sbuf, sbytes, rbuf, rbytes};
  pre(info);
  push_message(dst, tag, sbuf, sbytes);
  pop_message(src, tag, rbuf, rbytes);
  post(info);
}

void Comm::alltoall(const void* sbuf, void* rbuf, std::size_t bytes_per_rank) {
  const std::size_t all_bytes =
      bytes_per_rank * static_cast<std::size_t>(size());
  OpInfo info{OpKind::kAlltoall, -1, all_bytes,
              sbuf, all_bytes, rbuf, all_bytes};
  pre(info);
  const auto* s = static_cast<const std::byte*>(sbuf);
  auto* r = static_cast<std::byte*>(rbuf);
  const int p = size();
  // Local slice copies over without the wire.
  std::memcpy(r + static_cast<std::size_t>(rank_) * bytes_per_rank,
              s + static_cast<std::size_t>(rank_) * bytes_per_rank,
              bytes_per_rank);
  // Pairwise exchange: in round k, send to (rank + k) % p and receive
  // from (rank - k) % p, each round on its own tag.
  constexpr int kTag = 0x5a5a;
  for (int k = 1; k < p; ++k) {
    int dst = (rank_ + k) % p;
    int src = (rank_ - k + p) % p;
    push_message(dst, kTag + k, s + static_cast<std::size_t>(dst) * bytes_per_rank,
                 bytes_per_rank);
    pop_message(src, kTag + k, r + static_cast<std::size_t>(src) * bytes_per_rank,
                bytes_per_rank);
  }
  // All ranks leave an alltoall together (it is synchronizing in practice).
  std::uint64_t seq = world_->impl_->coll_seq[rank_]++;
  run_collective(
      *world_->impl_, p, rank_, seq, clock_, 0.0,
      [](std::vector<std::byte>&) {},
      [](std::vector<std::vector<std::byte>>&, std::vector<std::byte>&) {},
      [](const std::vector<std::byte>&) {});
  post(info);
}

}  // namespace unimem::mpi
