// Tests for minimpi: allreduce and alltoall values, sendrecv semantics,
// virtual time synchronization, and the PMPI hook stream — parameterized
// over rank counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "minimpi/comm.h"
#include "minimpi/pmpi.h"

namespace unimem::mpi {
namespace {

class MiniMpi : public ::testing::TestWithParam<int> {};

TEST_P(MiniMpi, AllreduceSum) {
  World world(GetParam());
  std::vector<double> results(GetParam());
  world.run([&](Comm& c) {
    double v[2] = {static_cast<double>(c.rank() + 1), 1.0};
    c.allreduce(v, 2);
    results[c.rank()] = v[0];
    EXPECT_DOUBLE_EQ(v[1], static_cast<double>(c.size()));
  });
  const int p = GetParam();
  for (double r : results) EXPECT_DOUBLE_EQ(r, p * (p + 1) / 2.0);
}

TEST_P(MiniMpi, AllreduceMaxMin) {
  World world(GetParam());
  world.run([&](Comm& c) {
    double v[1] = {static_cast<double>(c.rank())};
    c.allreduce(v, 1, ReduceOp::kMax);
    EXPECT_DOUBLE_EQ(v[0], static_cast<double>(c.size() - 1));
    v[0] = static_cast<double>(c.rank());
    c.allreduce(v, 1, ReduceOp::kMin);
    EXPECT_DOUBLE_EQ(v[0], 0.0);
  });
}

TEST_P(MiniMpi, RingSendrecv) {
  World world(GetParam());
  world.run([&](Comm& c) {
    const int p = c.size();
    int out = c.rank();
    int in = -1;
    c.sendrecv(&out, sizeof out, (c.rank() + 1) % p, &in, sizeof in,
               (c.rank() + p - 1) % p, 7);
    EXPECT_EQ(in, (c.rank() + p - 1) % p);
  });
}

TEST_P(MiniMpi, AlltoallPermutation) {
  const int p = GetParam();
  World world(p);
  world.run([&](Comm& c) {
    std::vector<std::int32_t> send(p), recv(p, -1);
    for (int i = 0; i < p; ++i) send[i] = c.rank() * 100 + i;
    c.alltoall(send.data(), recv.data(), sizeof(std::int32_t));
    for (int i = 0; i < p; ++i) EXPECT_EQ(recv[i], i * 100 + c.rank());
  });
}

TEST_P(MiniMpi, CollectiveClocksAgreeExactly) {
  const int p = GetParam();
  World world(p);
  std::vector<double> exit_times(p);
  world.run([&](Comm& c) {
    // Ranks enter at different times; rank 0 is the last to arrive.
    c.clock().advance(0.002 * (p - c.rank()));
    double v[1] = {1.0};
    c.allreduce(v, 1);
    exit_times[c.rank()] = c.clock().now();
  });
  // All ranks leave together, at >= the max entry time.
  EXPECT_GE(exit_times[0], 0.002 * p);
  for (int r = 1; r < p; ++r)
    EXPECT_DOUBLE_EQ(exit_times[r], exit_times[0]);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MiniMpi, ::testing::Values(1, 2, 3, 4, 8));

// Messages of one (src, dst, tag) stream arrive in send order: each rank
// sends 50 x 1 MiB to its right neighbour and receives 50 from its left.
TEST(MiniMpiP2p, MessageOrderingFifo) {
  World world(2);
  world.run([&](Comm& c) {
    const int peer = 1 - c.rank();
    std::vector<int> out(kMiB / sizeof(int)), in(out.size());
    for (int i = 0; i < 50; ++i) {
      out.front() = out.back() = 100 * c.rank() + i;
      c.sendrecv(out.data(), kMiB, peer, in.data(), kMiB, peer, 3);
      EXPECT_EQ(in.front(), 100 * peer + i);
      EXPECT_EQ(in.back(), 100 * peer + i);
    }
  });
}

// Tags keep streams of one (src, dst) pair apart.  On a 3-rank ring
// (send to r+2, receive from r+1) ranks 0 and 1 use tag 10 then 20, rank 2
// takes tag 20 first while rank 0's tag-10 message is still queued for it.
TEST(MiniMpiP2p, TagsKeepStreamsSeparate) {
  World world(3);
  world.run([&](Comm& c) {
    const int r = c.rank();
    const int dst = (r + 2) % 3, src = (r + 1) % 3;
    const std::vector<int> tags = r == 2 ? std::vector<int>{20, 10}
                                         : std::vector<int>{10, 20};
    for (int tag : tags) {
      int out = 100 * r + tag, in = -1;
      c.sendrecv(&out, sizeof out, dst, &in, sizeof in, src, tag);
      EXPECT_EQ(in, 100 * src + tag) << "rank " << r << " tag " << tag;
    }
  });
}

// A receive completes no earlier than send time + wire cost, also when the
// receiver is idle and every message is 1 MiB.
TEST(MiniMpiP2p, RecvClockRespectsWireCost) {
  NetworkParams net;
  World world(2, net);
  world.run([&](Comm& c) {
    const int peer = 1 - c.rank();
    std::vector<char> out(kMiB), in(kMiB);
    for (int i = 0; i < 4; ++i) {
      const double sent = c.clock().now();
      c.sendrecv(out.data(), kMiB, peer, in.data(), kMiB, peer, 1);
      EXPECT_GE(c.clock().now(), sent + net.p2p_cost(kMiB));
    }
  });
}

// Every op calls the hooks once before and once after, with its kind, peer,
// payload size and the application buffers it reads and writes.
TEST(MiniMpiHooks, PairedCallsSeeKindsAndBuffers) {
  struct Recorder : PmpiHooks {
    std::vector<OpInfo> pre, post;
    void on_pre_op(const OpInfo& i) override { pre.push_back(i); }
    void on_post_op(const OpInfo& i) override { post.push_back(i); }
  };
  const int p = 3;
  World world(p);
  world.run([&](Comm& c) {
    const int r = c.rank();
    const int right = (r + 1) % p, left = (r + p - 1) % p;
    double v[2] = {1.0, 2.0};
    int out = r, in = -1;
    std::vector<std::int64_t> sbuf(p, r), rbuf(p, -1);
    const std::size_t a2a = p * sizeof(std::int64_t);
    Recorder rec;
    c.set_hooks(&rec);
    c.allreduce(v, 2);
    c.sendrecv(&out, sizeof out, right, &in, sizeof in, left, 4);
    c.alltoall(sbuf.data(), rbuf.data(), sizeof(std::int64_t));
    c.set_hooks(nullptr);

    const OpInfo want[] = {
        {OpKind::kAllreduce, -1, sizeof v, v, sizeof v, v, sizeof v},
        {OpKind::kSendrecv, right, 2 * sizeof(int), &out, sizeof out, &in,
         sizeof in},
        {OpKind::kAlltoall, -1, a2a, sbuf.data(), a2a, rbuf.data(), a2a},
    };
    ASSERT_EQ(rec.pre.size(), 3u) << "rank " << r;
    ASSERT_EQ(rec.post.size(), 3u) << "rank " << r;
    for (std::size_t i = 0; i < 3; ++i) {
      const OpInfo& w = want[i];
      for (const OpInfo& got : {rec.pre[i], rec.post[i]}) {
        EXPECT_EQ(got.kind, w.kind) << "rank " << r << " op " << i;
        EXPECT_EQ(got.peer, w.peer) << "rank " << r << " op " << i;
        EXPECT_EQ(got.bytes, w.bytes) << "rank " << r << " op " << i;
        EXPECT_EQ(got.read_buf, w.read_buf) << "rank " << r << " op " << i;
        EXPECT_EQ(got.read_bytes, w.read_bytes) << "rank " << r << " op " << i;
        EXPECT_EQ(got.write_buf, w.write_buf) << "rank " << r << " op " << i;
        EXPECT_EQ(got.write_bytes, w.write_bytes)
            << "rank " << r << " op " << i;
      }
    }
  });
}

TEST(MiniMpiWorld, ExceptionPropagates) {
  World world(2);
  EXPECT_THROW(world.run([&](Comm& c) {
                 if (c.rank() == 1) throw std::runtime_error("rank fail");
                 // Rank 0 does nothing and exits cleanly.
               }),
               std::runtime_error);
}

TEST(MiniMpiWorld, NodeMapping) {
  World world(4, NetworkParams{}, 2);
  world.run([&](Comm& c) { EXPECT_EQ(c.node(), c.rank() / 2); });
}

TEST(NetworkParamsModel, CostsScale) {
  NetworkParams n;
  EXPECT_GT(n.p2p_cost(1 << 20), n.p2p_cost(0));
  EXPECT_DOUBLE_EQ(n.collective_cost(0, 1), 0.0);
  EXPECT_GT(n.collective_cost(64, 8), n.collective_cost(64, 2));
}

}  // namespace
}  // namespace unimem::mpi
