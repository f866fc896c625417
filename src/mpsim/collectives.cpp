#include "src/mpsim/collectives.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace ardbt::mpsim {
namespace {

/// Translate a virtual rank (relative to root) back to a real rank.
int from_vrank(int vrank, int root, int size) { return (vrank + root) % size; }

}  // namespace

void barrier(Comm& comm) {
  const int p = comm.size();
  // Phase timers read vtime() around barriers. A one-rank barrier sends
  // nothing, so fold pending measured compute here (for P > 1 the first
  // send does it); under ChargedFlops this leaves the clock unchanged.
  if (p == 1) comm.sync_compute();
  const int r = comm.rank();
  const std::byte token{0};
  for (int k = 1; k < p; k <<= 1) {
    const int to = (r + k) % p;
    const int from = (r - k % p + p) % p;
    comm.send_bytes(to, tags::kBarrier, std::span<const std::byte>(&token, 1));
    (void)comm.recv_bytes(from, tags::kBarrier);
  }
}

void bcast(Comm& comm, std::span<double> data, int root) {
  const int p = comm.size();
  const int r = comm.rank();
  assert(root >= 0 && root < p);
  const int vr = (r - root + p) % p;

  int mask = 1;
  while (mask < p) {
    if (vr & mask) {
      comm.recv_into(from_vrank(vr - mask, root, p), tags::kBcast, data);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) {
      comm.send(from_vrank(vr + mask, root, p), tags::kBcast, std::span<const double>(data));
    }
    mask >>= 1;
  }
}

void reduce_sum(Comm& comm, std::span<double> inout, int root) {
  const int p = comm.size();
  const int r = comm.rank();
  assert(root >= 0 && root < p);
  const int vr = (r - root + p) % p;
  std::vector<double> buf(inout.size());

  int mask = 1;
  while (mask < p) {
    if ((vr & mask) == 0) {
      const int vsrc = vr | mask;
      if (vsrc < p) {
        comm.recv_into(from_vrank(vsrc, root, p), tags::kReduce, std::span<double>(buf));
        for (std::size_t i = 0; i < inout.size(); ++i) inout[i] += buf[i];
      }
    } else {
      comm.send(from_vrank(vr - mask, root, p), tags::kReduce, std::span<const double>(inout));
      break;
    }
    mask <<= 1;
  }
}

void allreduce_sum(Comm& comm, std::span<double> inout) {
  reduce_sum(comm, inout, /*root=*/0);
  bcast(comm, inout, /*root=*/0);
}

void allreduce_max(Comm& comm, std::span<double> inout) {
  // Same binomial structure as reduce_sum with max combine.
  const int p = comm.size();
  const int vr = comm.rank();
  std::vector<double> buf(inout.size());
  int mask = 1;
  while (mask < p) {
    if ((vr & mask) == 0) {
      const int src = vr | mask;
      if (src < p) {
        comm.recv_into(src, tags::kReduce, std::span<double>(buf));
        for (std::size_t i = 0; i < inout.size(); ++i) inout[i] = std::max(inout[i], buf[i]);
      }
    } else {
      comm.send(vr - mask, tags::kReduce, std::span<const double>(inout));
      break;
    }
    mask <<= 1;
  }
  bcast(comm, inout, /*root=*/0);
}

void gather(Comm& comm, std::span<const double> send, std::span<double> out, int root) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::size_t n = send.size();
  if (r == root) {
    assert(out.size() == n * static_cast<std::size_t>(p));
    std::copy(send.begin(), send.end(), out.begin() + static_cast<std::ptrdiff_t>(n) * r);
    for (int src = 0; src < p; ++src) {
      if (src == root) continue;
      comm.recv_into(src, tags::kGather, out.subspan(n * static_cast<std::size_t>(src), n));
    }
  } else {
    comm.send(root, tags::kGather, send);
  }
}

void gatherv(Comm& comm, std::span<const double> send, std::span<const std::int64_t> counts,
             std::span<double> out, int root) {
  const int p = comm.size();
  const int r = comm.rank();
  if (r == root) {
    assert(static_cast<int>(counts.size()) == p);
    std::size_t offset = 0;
    for (int src = 0; src < p; ++src) {
      const auto cnt = static_cast<std::size_t>(counts[static_cast<std::size_t>(src)]);
      assert(offset + cnt <= out.size());
      auto dst = out.subspan(offset, cnt);
      if (src == root) {
        assert(send.size() == cnt);
        std::copy(send.begin(), send.end(), dst.begin());
      } else {
        comm.recv_into(src, tags::kGather, dst);
      }
      offset += cnt;
    }
  } else {
    comm.send(root, tags::kGather, send);
  }
}

void allgather(Comm& comm, std::span<const double> send, std::span<double> out) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::size_t n = send.size();
  assert(out.size() == n * static_cast<std::size_t>(p));
  std::copy(send.begin(), send.end(), out.begin() + static_cast<std::ptrdiff_t>(n) * r);
  // Ring: at step s, pass along the block that originated s hops upstream.
  const int next = (r + 1) % p;
  const int prev = (r - 1 + p) % p;
  for (int s = 0; s < p - 1; ++s) {
    const int send_block = (r - s + p) % p;
    const int recv_block = (r - s - 1 + p) % p;
    comm.send(next, tags::kAllgather,
              std::span<const double>(out.subspan(n * static_cast<std::size_t>(send_block), n)));
    comm.recv_into(prev, tags::kAllgather,
                   out.subspan(n * static_cast<std::size_t>(recv_block), n));
  }
}

std::vector<ScanStep> exscan_schedule(int rank, int size) {
  assert(rank >= 0 && rank < size);
  std::vector<ScanStep> steps;
  int level = 0;
  for (int mask = 1; mask < size; mask <<= 1, ++level) {
    const int partner = rank ^ mask;
    if (partner < size) {
      steps.push_back(
          ScanStep{.partner = partner, .partner_is_lower = partner < rank, .level = level});
    }
  }
  return steps;
}

std::vector<double> exscan_sum(Comm& comm, std::span<const double> local) {
  using Vec = std::vector<double>;
  Vec mine(local.begin(), local.end());
  auto op = [](const Vec& a, const Vec& b) {
    Vec out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
    return out;
  };
  auto ser = [](const Vec& v) {
    std::vector<std::byte> bytes(v.size() * sizeof(double));
    std::memcpy(bytes.data(), v.data(), bytes.size());
    return bytes;
  };
  auto des = [](std::span<const std::byte> bytes) {
    Vec v(bytes.size() / sizeof(double));
    std::memcpy(v.data(), bytes.data(), bytes.size());
    return v;
  };
  auto result = exscan(comm, std::move(mine), op, ser, des);
  return result ? *result : Vec(local.size(), 0.0);
}

std::vector<double> scan_sum(Comm& comm, std::span<const double> local) {
  std::vector<double> incl = exscan_sum(comm, local);
  for (std::size_t i = 0; i < incl.size(); ++i) incl[i] += local[i];
  return incl;
}

}  // namespace ardbt::mpsim
