#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/error.h"
#include "proto/wire.h"

namespace fleetbench {

using dialed::byte_vec;
using dialed::proto::proto_error;

namespace {

/// Phase rounds recorded as spans in a traced run (the probe's spans are
/// always kept); bounds the trace file.
constexpr std::size_t max_span_rounds = 20000;
/// How long a phase waits for in-flight rounds after its window closes.
constexpr std::uint64_t drain_ns = 10'000'000'000ull;

[[noreturn]] void sys_fail(const char* what) {
  throw dialed::error(std::string("fleetbench: ") + what + ": " +
                      std::strerror(errno));
}

}  // namespace

phase_stats& phase_stats::operator+=(const phase_stats& o) {
  seconds += o.seconds;
  sub_window_s = o.sub_window_s;
  win_verdicts.insert(win_verdicts.end(), o.win_verdicts.begin(),
                      o.win_verdicts.end());
  win_cpu_ns.insert(win_cpu_ns.end(), o.win_cpu_ns.begin(), o.win_cpu_ns.end());
  win_latency_ms.insert(win_latency_ms.end(), o.win_latency_ms.begin(),
                        o.win_latency_ms.end());
  attempted += o.attempted;
  failed += o.failed;
  wrong_verdict += o.wrong_verdict;
  protocol_error += o.protocol_error;
  unanswered += o.unanswered;
  verdicts_in_window += o.verdicts_in_window;
  for (std::size_t k = 0; k < by_kind.size(); ++k) by_kind[k] += o.by_kind[k];
  gen_cpu_ns += o.gen_cpu_ns;
  late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
  frame_bytes += o.frame_bytes;
  frames += o.frames;
  log_bytes += o.log_bytes;
  return *this;
}

load_generator::load_generator(const workload& w, std::uint16_t port,
                               std::uint64_t seed, span_log& spans)
    : w_(w), spans_(spans), rbuf_(64 * 1024) {
  devs_.resize(w.devices.size());
  for (std::size_t i = 0; i < devs_.size(); ++i) {
    auto& d = devs_[i];
    d.id = w.devices[i].id;
    if (d.id != i + 1) throw dialed::error("fleetbench: device ids not dense");
    d.group = w.devices[i].group;
    d.conn = static_cast<std::uint8_t>(i % conns_.size());
    d.stream = rng(mix_seed(seed, 0x10000 + d.id));
  }

  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) sys_fail("epoll_create1");
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    auto& c = conns_[i];
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) sys_fail("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      sys_fail("connect");
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK) != 0) {
      sys_fail("fcntl");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(i);
    if (epoll_ctl(epfd_, EPOLL_CTL_ADD, c.fd, &ev) != 0) sys_fail("epoll_ctl");
  }
}

load_generator::~load_generator() {
  for (auto& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (epfd_ >= 0) ::close(epfd_);
}

phase_stats load_generator::run_sat(double seconds, std::size_t windows) {
  return run(mode::sat, seconds, 0, windows);
}

phase_stats load_generator::run_paced(double seconds, double rate,
                                      std::size_t windows) {
  return run(mode::paced, seconds, rate, windows);
}

phase_stats load_generator::run(mode m, double seconds, double rate,
                                std::size_t windows) {
  phase_stats st;
  st.seconds = seconds;
  st.sub_window_s = seconds / static_cast<double>(windows);
  st.win_verdicts.assign(windows, 0);
  st.win_cpu_ns.assign(windows, 0);
  st.win_latency_ms.assign(windows, {});
  cur_ = &st;
  mode_ = m;
  start_ns_ = now_ns();
  end_ns_ = start_ns_ + static_cast<std::uint64_t>(seconds * 1e9);
  window_ns_ = (end_ns_ - start_ns_) / windows;
  windows_closed_ = 0;
  window_open_ = true;
  const std::uint64_t gen0 = thread_cpu_ns();
  const std::uint64_t proc0 = process_cpu_ns();
  win_cpu_mark_ = proc0 - gen0;

  const std::size_t n = devs_.size();
  if (m == mode::sat) {
    for (std::size_t i = 0; i < n; ++i) start_round(i, start_ns_);
  } else {
    // Devices evenly staggered over one period.
    period_ns_ = static_cast<std::uint64_t>(static_cast<double>(n) / rate * 1e9);
    for (std::size_t i = 0; i < n; ++i) {
      due_.push({start_ns_ + period_ns_ * i / n, i});
    }
  }

  const std::uint64_t deadline = end_ns_ + drain_ns;
  for (;;) {
    std::uint64_t now = now_ns();
    close_windows(now);
    if (window_open_ && now >= end_ns_) {
      window_open_ = false;
      st.gen_cpu_ns = thread_cpu_ns() - gen0;
    }
    while (!due_.empty() && due_.top().due <= now) {
      const auto item = due_.top();
      due_.pop();
      start_round(item.dev, item.due);
    }
    for (auto& c : conns_) flush(c);
    if (!window_open_ && inflight_ == 0 && due_.empty()) break;
    if (now >= deadline) {
      for (auto& d : devs_) {
        if (d.st != stage::idle) fail_round(d, &st.unanswered);
      }
      break;
    }
    std::uint64_t wake = window_open_
                             ? start_ns_ + (windows_closed_ + 1) * window_ns_
                             : deadline;
    if (!due_.empty() && due_.top().due < wake) wake = due_.top().due;
    now = now_ns();
    poll(wake > now ? wake - now : 0);
  }
  cur_ = nullptr;
  return st;
}

std::size_t load_generator::window_of(std::uint64_t t) const {
  const std::size_t w = static_cast<std::size_t>((t - start_ns_) / window_ns_);
  return std::min(w, cur_->win_verdicts.size() - 1);
}

void load_generator::close_windows(std::uint64_t now) {
  const std::size_t n = cur_->win_cpu_ns.size();
  while (windows_closed_ < n &&
         now >= start_ns_ + (windows_closed_ + 1) * window_ns_) {
    const std::uint64_t mark = process_cpu_ns() - thread_cpu_ns();
    cur_->win_cpu_ns[windows_closed_++] = mark - win_cpu_mark_;
    win_cpu_mark_ = mark;
  }
}

load_generator::round_legs load_generator::single_round(std::size_t dev) {
  phase_stats st;
  cur_ = &st;
  mode_ = mode::single;
  start_ns_ = now_ns();
  end_ns_ = start_ns_;
  window_open_ = false;
  auto& d = devs_[dev];
  start_round(dev, start_ns_, true);
  const std::uint64_t deadline = start_ns_ + drain_ns;
  while (d.st != stage::idle) {
    for (auto& c : conns_) flush(c);
    const std::uint64_t now = now_ns();
    if (now >= deadline) {
      fail_round(d, &st.unanswered);
      break;
    }
    poll(deadline - now);
  }
  round_legs legs;
  legs.verdict_recv = now_ns();
  legs.challenge_sent = d.challenge_sent;
  legs.challenge_recv = d.challenge_recv;
  legs.report_sent = d.report_sent;
  legs.ok = st.failed == 0;
  cur_ = nullptr;
  return legs;
}

void load_generator::start_round(std::size_t dev, std::uint64_t due,
                                 bool force_benign) {
  auto& d = devs_[dev];
  const auto& g = w_.groups[d.group];
  d.kind = round_kind::benign;
  d.entry = nullptr;
  if (!force_benign) {
    if (!g.attacks.empty() && d.stream.unit() < w_.p_data_only) {
      d.kind = round_kind::data_only;
      d.entry = &g.attacks[d.stream.below(g.attacks.size())];
    } else if (w_.p_forged_mac + w_.p_replayed > 0) {
      const double u = d.stream.unit();
      if (u < w_.p_forged_mac) {
        d.kind = round_kind::forged_mac;
      } else if (u < w_.p_forged_mac + w_.p_replayed && d.has_last_accepted) {
        d.kind = round_kind::replayed;
        d.entry = d.last_accepted_entry;
      }
    }
  }
  if (d.entry == nullptr) d.entry = &next_benign(dev);

  d.st = stage::challenge;
  d.due_ns = due;
  d.round_id = next_round_id_++;
  auto& c = conns_[d.conn];
  dialed::proto::append_stream_frame(
      c.out, dialed::net::encode_challenge_req({d.id}));
  d.challenge_sent = now_ns();
  ++inflight_;
  ++cur_->attempted;
  ++cur_->by_kind[static_cast<std::size_t>(d.kind)];
  if (mode_ == mode::paced) {
    const std::uint64_t ready = std::max(due, d.idle_since);
    cur_->late_ms.push_back(
        static_cast<double>(d.challenge_sent - std::min(ready, d.challenge_sent)) /
        1e6);
  }
}

void load_generator::on_frame(const byte_vec& frame) {
  if (const auto v = dialed::net::decode_attest_resp(frame)) {
    if (v->device_id >= 1 && v->device_id <= devs_.size()) {
      on_verdict(devs_[v->device_id - 1], *v);
      return;
    }
  } else if (const auto ch = dialed::net::decode_challenge_resp(frame)) {
    if (ch->device_id >= 1 && ch->device_id <= devs_.size()) {
      on_challenge(devs_[ch->device_id - 1], *ch);
      return;
    }
  }
  ++stray_;
}

void load_generator::on_challenge(device_state& d,
                                  const dialed::net::challenge_resp& m) {
  if (d.st != stage::challenge) {
    ++stray_;
    return;
  }
  d.challenge_recv = now_ns();
  if (m.error != proto_error::none) {
    fail_round(d, &cur_->protocol_error);
    return;
  }
  if (d.kind == round_kind::replayed) {
    d.frame = d.last_accepted;
    d.expect_seq = dialed::load_le32(d.frame, 8);
  } else {
    const auto& plan = w_.devices[d.id - 1];
    const bool delta = w_.delta_frames && d.has_baseline;
    build_frame(w_.groups[d.group], *d.entry, d.id, m.seq, m.nonce,
                plan.key_state, d.kind == round_kind::forged_mac,
                delta ? &d.baseline : nullptr, scratch_, d.frame);
    d.expect_seq = m.seq;
  }
  dialed::proto::append_stream_frame(conns_[d.conn].out, d.frame);
  cur_->frame_bytes += d.frame.size();
  ++cur_->frames;
  cur_->log_bytes += static_cast<std::uint64_t>(d.entry->log_bytes);
  d.st = stage::report;
  d.report_sent = now_ns();
}

void load_generator::on_verdict(device_state& d,
                                const dialed::net::attest_resp& m) {
  if (d.st != stage::report) {
    ++stray_;
    return;
  }
  if (m.seq != d.expect_seq) {
    fail_round(d, &cur_->protocol_error);
    return;
  }
  const auto want = expected_for(d.kind);
  if (m.error != want.error || m.accepted != want.accepted) {
    fail_round(d, &cur_->wrong_verdict);
    return;
  }
  if (m.accepted) {
    d.has_baseline = true;
    d.baseline = {m.seq, d.entry};
    if (w_.p_replayed > 0) {
      d.last_accepted.swap(d.frame);
      d.last_accepted_entry = d.entry;
      d.has_last_accepted = true;
    }
  }
  finish_round(d, true, now_ns());
}

void load_generator::fail_round(device_state& d, std::uint64_t* counter) {
  ++*counter;
  ++cur_->failed;
  finish_round(d, false, now_ns());
}

void load_generator::finish_round(device_state& d, bool ok,
                                  std::uint64_t now) {
  --inflight_;
  d.st = stage::idle;
  d.idle_since = now;
  if (ok && now < end_ns_) {
    ++cur_->verdicts_in_window;
    ++cur_->win_verdicts[window_of(now)];
  }
  if (mode_ == mode::paced) {
    // A failed round misses every latency limit.
    const double ms = ok ? static_cast<double>(now - d.due_ns) / 1e6
                         : static_cast<double>(drain_ns) / 1e6;
    cur_->win_latency_ms[window_of(d.due_ns)].push_back(ms);
  }
  if (spans_.enabled() && mode_ != mode::single &&
      spans_recorded_rounds_ < max_span_rounds) {
    ++spans_recorded_rounds_;
    const auto root = spans_.add(0, d.round_id, "round", d.due_ns, now);
    spans_.add(root, d.round_id, "round.challenge", d.challenge_sent,
               d.challenge_recv);
    if (d.report_sent != 0 && d.report_sent >= d.challenge_sent) {
      spans_.add(root, d.round_id, "round.report", d.report_sent, now);
    }
  }
  const std::size_t dev = d.id - 1;
  if (mode_ == mode::sat && now < end_ns_) {
    start_round(dev, now);
  } else if (mode_ == mode::paced) {
    const std::uint64_t next = d.due_ns + period_ns_;
    if (next < end_ns_) due_.push({next, dev});
  }
}

const pool_entry& load_generator::next_benign(std::size_t dev) {
  const auto& benign = w_.groups[devs_[dev].group].benign;
  const auto& plan = w_.devices[dev];
  if (!w_.memo_bypass) return benign[plan.pool_start];
  return benign[(plan.pool_start + devs_[dev].cursor++) % benign.size()];
}

const pool_entry& load_generator::build_benign(
    std::size_t dev, std::uint32_t seq,
    const std::array<std::uint8_t, 16>& nonce, byte_vec& out) {
  auto& d = devs_[dev];
  const pool_entry& e = next_benign(dev);
  const bool delta = w_.delta_frames && d.has_baseline;
  build_frame(w_.groups[d.group], e, d.id, seq, nonce,
              w_.devices[dev].key_state, false,
              delta ? &d.baseline : nullptr, scratch_, out);
  return e;
}

std::span<const std::uint8_t> load_generator::baseline_or(
    std::size_t dev) const {
  const auto& d = devs_[dev];
  if (!d.has_baseline) return {};
  return d.baseline.entry->report.or_bytes;
}

void load_generator::note_accepted(std::size_t dev, std::uint32_t seq,
                                   const pool_entry& entry) {
  auto& d = devs_[dev];
  d.has_baseline = true;
  d.baseline = {seq, &entry};
}

void load_generator::flush(connection& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      sys_fail("send");
    }
  }
  if (c.out_pos == c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
  }
  update_write_interest(c);
}

void load_generator::update_write_interest(connection& c) {
  const bool want = c.out_pos < c.out.size();
  if (want == c.want_write) return;
  c.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u32 = static_cast<std::uint32_t>(&c - conns_.data());
  if (epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev) != 0) sys_fail("epoll_ctl");
}

void load_generator::poll(std::uint64_t timeout_ns) {
  epoll_event events[4];
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000ull);
  const int n = epoll_pwait2(epfd_, events, 4, &ts, nullptr);
  if (n < 0) {
    if (errno == EINTR) return;
    sys_fail("epoll_pwait2");
  }
  for (int i = 0; i < n; ++i) {
    auto& c = conns_[events[i].data.u32];
    if ((events[i].events & EPOLLOUT) != 0) flush(c);
    if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) == 0) continue;
    for (;;) {
      const ssize_t got = ::recv(c.fd, rbuf_.data(), rbuf_.size(), 0);
      if (got > 0) {
        if (!c.framer.feed({rbuf_.data(), static_cast<std::size_t>(got)})) {
          throw dialed::error("fleetbench: service stream poisoned");
        }
        while (c.framer.next(frame_)) on_frame(frame_);
        continue;
      }
      if (got == 0) throw dialed::error("fleetbench: service closed a connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      sys_fail("recv");
    }
  }
}

}  // namespace fleetbench
