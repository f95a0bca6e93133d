// serve_open_loop: serve::AdmissionService::run_wall on its own thread over
// an in-process RingTransport (16 cells, 64 portables), driven open loop by
// a Poisson generator on this thread. Every request is timed from its due
// time (when the Poisson schedule says it is sent), not from when the
// generator got round to sending it, so a stalled generator shows up as
// latency and as driver lateness instead of being hidden.
#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <limits>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "bench.h"
#include "probe.h"
#include "serve/codec.h"
#include "serve/load_driver.h"
#include "serve/ring_transport.h"
#include "serve/service.h"
#include "serve/transport.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace perfbench {

namespace {

using namespace imrm;

constexpr std::uint32_t kCells = 16;
constexpr std::uint32_t kPortables = 64;
constexpr int kSetupRepeats = 201;
constexpr double kReplayRate = 3000.0;  // virtual req/s: 60% of the 200 µs server
constexpr double kReplayRequests = 20000.0;
constexpr int kLatencyWindows = 4;
/// The service's default latency SLO (serve::SloConfig::p99_target_us).
const double kSloUs = serve::SloConfig{}.p99_target_us;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

/// The request id every frame carries after its 4-byte magic, version and
/// type bytes (serve/codec.h), little-endian.
std::uint64_t frame_id(const std::vector<std::uint8_t>& frame) {
  if (frame.size() < 14) return 0;
  std::uint64_t id = 0;
  for (int i = 0; i < 8; ++i) id |= std::uint64_t(frame[6 + i]) << (8 * i);
  return id;
}

/// Per-request timestamps (µs since the step started), indexed by request
/// id. Each instance is written by one thread only.
struct Stamps {
  std::vector<double> at;
  void set(std::uint64_t id, double us) {
    if (id >= at.size()) at.resize(std::max<std::size_t>(id + 1, 2 * at.size()), -1.0);
    at[id] = us;
  }
  [[nodiscard]] double get(std::uint64_t id) const { return id < at.size() ? at[id] : -1.0; }
};

/// Decorators on the two transport interfaces: the traced run stamps when
/// the service pops a request and sends its reply, and when the driver's
/// frames enter and leave the rings.
class TimedServer final : public serve::ServerTransport {
 public:
  TimedServer(serve::ServerTransport& inner, Clock::time_point start)
      : inner_(inner), start_(start) {}
  bool next_request(serve::Envelope& env, std::chrono::microseconds wait) override {
    if (!inner_.next_request(env, wait)) return false;
    popped.set(frame_id(env.frame), us_since(start_));
    return true;
  }
  void send_reply(std::uint64_t client, std::vector<std::uint8_t> frame) override {
    replied.set(frame_id(frame), us_since(start_));
    inner_.send_reply(client, std::move(frame));
  }
  [[nodiscard]] bool finished() const override { return inner_.finished(); }
  Stamps popped, replied;

 private:
  serve::ServerTransport& inner_;
  Clock::time_point start_;
};

class TimedClient final : public serve::ClientTransport {
 public:
  TimedClient(serve::ClientTransport& inner, Clock::time_point start)
      : inner_(inner), start_(start) {}
  bool send_request(std::vector<std::uint8_t> frame) override {
    sent.set(frame_id(frame), us_since(start_));
    return inner_.send_request(std::move(frame));
  }
  bool next_reply(std::vector<std::uint8_t>& frame, std::chrono::microseconds wait) override {
    if (!inner_.next_reply(frame, wait)) return false;
    received.set(frame_id(frame), us_since(start_));
    return true;
  }
  void close() override { inner_.close(); }
  Stamps sent, received;

 private:
  serve::ClientTransport& inner_;
  Clock::time_point start_;
};

/// The request mix of serve::LoadDriver (admit/teardown/handoff/probe
/// 0.5/0.2/0.25/0.05 over 64 portables), with its belief state: handoffs go
/// to a corridor neighbour of the portable's believed cell, and a request
/// the service shed or refused is rolled back so the belief never drifts
/// from the service's cell map.
class Mix {
 public:
  struct Intent {
    std::uint8_t kind = 0;  // 0 none, 1 admit, 2 teardown, 3 handoff
    std::uint32_t portable = 0;
    std::uint32_t prev_cell = 0;
    std::uint32_t new_cell = 0;
  };

  explicit Mix(std::uint64_t seed)
      : rng_(seed), cell_of_(kPortables), admitted_(kPortables, false), seen_(kPortables, false) {
    for (std::uint32_t p = 0; p < kPortables; ++p) cell_of_[p] = p % kCells;
  }

  double gap_us(double rate) { return rng_.exponential_rate(rate) * 1e6; }

  serve::Request next(Intent& intent) {
    static constexpr std::array<double, 4> kWeights{0.5, 0.2, 0.25, 0.05};
    const auto p = std::uint32_t(rng_.uniform_int(0, int(kPortables) - 1));
    std::size_t kind = rng_.discrete(kWeights);
    if (kind == 0 && admitted_[p]) kind = 1;
    if ((kind == 1 || kind == 2) && !seen_[p]) kind = 0;
    intent = Intent{};
    switch (kind) {
      case 0: {
        serve::AdmitRequest req;
        req.portable = p;
        req.cell = cell_of_[p];
        req.uplink = rng_.bernoulli(0.5);
        req.qos = serve::DriveConfig{}.qos;
        seen_[p] = true;
        admitted_[p] = true;
        intent = Intent{1, p, 0, 0};
        return req;
      }
      case 1:
        admitted_[p] = false;
        intent = Intent{2, p, 0, 0};
        return serve::TeardownRequest{p};
      case 2: {
        const std::uint32_t cur = cell_of_[p];
        std::uint32_t to;
        if (cur == 0) {
          to = 1;
        } else if (cur == kCells - 1) {
          to = cur - 1;
        } else {
          to = rng_.bernoulli(0.5) ? cur + 1 : cur - 1;
        }
        cell_of_[p] = to;
        intent = Intent{3, p, cur, to};
        return serve::HandoffRequest{p, to};
      }
      default:
        return serve::ProbeRequest{};
    }
  }

  /// Undoes `intent` for a request the service never executed, unless a
  /// later request already moved the same state on.
  void rollback(const Intent& intent) {
    const std::uint32_t p = intent.portable;
    if (intent.kind == 1) {
      admitted_[p] = false;
    } else if (intent.kind == 2) {
      admitted_[p] = true;
    } else if (intent.kind == 3 && cell_of_[p] == intent.new_cell) {
      cell_of_[p] = intent.prev_cell;
    }
  }

 private:
  sim::Rng rng_;
  std::vector<std::uint32_t> cell_of_;
  std::vector<bool> admitted_;
  std::vector<bool> seen_;
};

struct Step {
  double rate = 0.0;
  double duration_s = 0.0;
  std::uint64_t sent = 0, backpressure = 0, answered = 0, shed = 0, errors = 0;
  std::uint64_t unanswered = 0, over_slo = 0;
  /// Error replies not explained by an earlier shed or error for the same
  /// portable (which leaves the driver's belief state off the service's).
  std::uint64_t unexplained_errors = 0;
  std::vector<double> due_us;      // per request id - 1
  std::vector<double> latency_us;  // reply time - due time; < 0 = no reply
  std::vector<bool> refused;       // answered with a shed or error reply
  std::vector<double> late_us;     // actual send - due time
  double last_reply_us = 0.0;
  serve::ServiceStats service;
  std::uint64_t dropped_replies = 0;
  std::vector<double> queue_wait_us, service_us, reply_us;  // traced only

  /// Latencies of the requests due in [from_us, to_us). A request that was
  /// shed, refused, lost or never sent misses any latency limit: it counts
  /// as infinitely late.
  [[nodiscard]] std::vector<double> latencies(double from_us, double to_us) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < due_us.size(); ++i) {
      if (due_us[i] < from_us || due_us[i] >= to_us) continue;
      const bool missed = latency_us[i] < 0.0 || refused[i];
      out.push_back(missed ? std::numeric_limits<double>::infinity() : latency_us[i]);
    }
    return out;
  }
  [[nodiscard]] double latency_q(double q) const {
    return quantile(latencies(0.0, std::numeric_limits<double>::infinity()), q);
  }
  /// Median over kLatencyWindows equal slices of the step (by due time) of
  /// each slice's quantile: one scheduler hiccup moves one slice, not the
  /// figure.
  [[nodiscard]] double windowed_latency_q(double q) const {
    std::vector<double> per_window;
    const double width = duration_s * 1e6 / kLatencyWindows;
    for (int w = 0; w < kLatencyWindows; ++w) {
      per_window.push_back(quantile(latencies(w * width, (w + 1) * width), q));
    }
    return quantile(per_window, 0.5);  // a rank, never the mean of two
  }
  /// Requests the service executed and answered substantively (processed,
  /// minus error replies) per second of the step.
  [[nodiscard]] double sustained_rps() const {
    return ratio(double(service.processed - service.errors), last_reply_us * 1e-6);
  }
};

Step run_step(double rate, double duration_s, std::uint64_t seed) {
  Step step;
  step.rate = rate;
  step.duration_s = duration_s;

  serve::ServiceConfig config;
  config.cells = kCells;
  sim::Simulator simulator;
  serve::AdmissionService service(config, simulator);
  serve::RingTransport ring(4096, 1 << 16);
  const auto start = Clock::now();
  TimedServer timed_server(ring.server(), start);
  TimedClient timed_client(ring.client(), start);
  serve::ServerTransport& server = kTraced ? static_cast<serve::ServerTransport&>(timed_server)
                                           : ring.server();
  serve::ClientTransport& client = kTraced ? static_cast<serve::ClientTransport&>(timed_client)
                                           : ring.client();
  // A jthread joins on every path; should the driver throw before closing
  // its end, the service stops at its deadline.
  std::exception_ptr service_error;
  std::jthread service_thread([&] {
    try {
      service.run_wall(server, duration_s + 30.0);
    } catch (...) {
      service_error = std::current_exception();
    }
  });

  Mix mix(seed);
  std::vector<Mix::Intent> intents;
  std::vector<bool> tainted(kPortables, false);  // a request of it was shed or refused
  std::vector<std::uint8_t> bytes;
  const auto poll = [&] {
    while (client.next_reply(bytes, std::chrono::microseconds(0))) {
      const double now = us_since(start);
      serve::ReplyFrame frame;
      try {
        frame = serve::decode_reply(bytes);
      } catch (const serve::CodecError&) {
        ++step.errors;
        ++step.unexplained_errors;
        continue;
      }
      const std::uint64_t id = frame.request_id;
      if (id == 0 || id > step.sent || step.latency_us[id - 1] >= 0.0) {
        ++step.errors;  // a reply nobody asked for, or a second one
        ++step.unexplained_errors;
        continue;
      }
      const double latency = now - step.due_us[id - 1];
      step.latency_us[id - 1] = latency;
      step.last_reply_us = now;
      ++step.answered;
      if (latency > kSloUs) ++step.over_slo;
      const bool shed = std::holds_alternative<serve::ShedReply>(frame.body);
      const bool error = std::holds_alternative<serve::ErrorReply>(frame.body);
      const Mix::Intent& intent = intents[id - 1];
      if (shed) ++step.shed;
      if (error) {
        ++step.errors;
        if (intent.kind == 0 || !tainted[intent.portable]) ++step.unexplained_errors;
      }
      if (shed || error) {
        step.refused[id - 1] = true;
        if (intent.kind != 0) tainted[intent.portable] = true;
        mix.rollback(intent);
      }
    }
  };

  const double end_us = duration_s * 1e6;
  for (double due = mix.gap_us(rate); due <= end_us; due += mix.gap_us(rate)) {
    double now;
    while ((now = us_since(start)) < due) poll();
    const std::uint64_t id = ++step.sent;
    Mix::Intent intent;
    const serve::Request request = mix.next(intent);
    intents.push_back(intent);
    step.due_us.push_back(due);
    step.latency_us.push_back(-1.0);
    step.refused.push_back(false);
    step.late_us.push_back(now - due);
    if (!client.send_request(serve::encode_request(id, request))) {
      ++step.backpressure;  // open loop: counted, never retried
      mix.rollback(intent);
    }
    poll();
  }
  const double drain_until = us_since(start) + 2e6;
  while (step.answered + step.backpressure < step.sent && us_since(start) < drain_until) poll();
  client.close();
  service_thread.join();
  if (service_error) std::rethrow_exception(service_error);

  step.unanswered = step.sent - step.backpressure - step.answered;
  step.service = service.stats();
  step.dropped_replies = ring.dropped_replies();
  if (kTraced) {
    for (std::uint64_t id = 1; id <= step.sent; ++id) {
      const double sent = timed_client.sent.get(id), popped = timed_server.popped.get(id),
                   replied = timed_server.replied.get(id),
                   received = timed_client.received.get(id);
      if (sent < 0 || popped < 0 || replied < 0 || received < 0) continue;
      step.queue_wait_us.push_back(popped - sent);
      step.service_us.push_back(replied - popped);
      step.reply_us.push_back(received - replied);
    }
  }
  return step;
}

/// Conservation checks for one step. An error reply is only expected as
/// the fallout of a shed or refused request the driver's belief state had
/// already built on.
void check_step(const Step& s, Report& report) {
  const std::string at = " at " + std::to_string(int(s.rate)) + " req/s";
  report.check(s.service.offered == s.service.processed + s.service.shed,
               "service offered != processed + shed" + at);
  report.check(s.service.offered + s.backpressure == s.sent,
               "service offered != requests that entered the ring" + at);
  report.check(s.unanswered == 0, std::to_string(s.unanswered) + " requests unanswered" + at);
  report.check(s.dropped_replies == 0, "reply ring dropped replies" + at);
  report.check(s.unexplained_errors == 0,
               std::to_string(s.unexplained_errors) + " unexplained error replies" + at);
}

/// The highest rate on a fixed ladder the service answers within the SLO
/// without shedding and without a growing backlog (last quarter's median
/// latency at most twice the first quarter's, plus 100 µs).
double climb_ladder(std::uint64_t seed) {
  constexpr double kStepSeconds = 0.5;
  double best = 0.0;
  for (double rate = 10000.0; rate <= 150000.0; rate += 10000.0) {
    const Step s = run_step(rate, kStepSeconds, seed);
    const double quarter = kStepSeconds * 1e6 / 4;
    const double head = quantile(s.latencies(0.0, quarter), 0.5);
    const double tail = quantile(s.latencies(3 * quarter, 4 * quarter), 0.5);
    const bool ok = s.shed == 0 && s.errors == 0 && s.unanswered == 0 && s.backpressure == 0 &&
                    s.latency_q(0.99) <= kSloUs && tail <= 2.0 * head + 100.0;
    if (!ok) break;
    best = rate;
  }
  return best;
}

/// The deterministic replay: serve::LoadDriver::run_virtual co-simulates the
/// driver and the service on one thread (virtual pacing, an M/D/1 server at
/// 200 µs of simulated time per request), so the answers are a pure function
/// of the seed and the host time is the pipeline's own cost: encode, ring,
/// decode, Table 2 admission in core::NetworkEnvironment, reply.
struct Replay {
  double wall_s = 0.0;
  std::string digest;
  serve::DriveStats drive;
  serve::ServiceStats service;
};

Replay run_replay(std::uint64_t seed) {
  serve::ServiceConfig config;
  config.cells = kCells;
  sim::Simulator simulator;
  serve::AdmissionService service(config, simulator);
  serve::RingTransport ring;
  serve::DriveConfig drive;
  drive.rate = kReplayRate;
  drive.duration_s = kReplayRequests / kReplayRate;
  drive.seed = seed;
  drive.portables = kPortables;
  drive.cells = kCells;
  serve::LoadDriver driver(drive);
  Replay r;
  const auto t0 = Clock::now();
  r.drive = driver.run_virtual(simulator, ring, service);
  r.wall_s = seconds_since(t0);
  r.service = service.stats();
  const auto& d = r.drive;
  const auto& v = r.service;
  r.digest = "sent=" + std::to_string(d.sent) + " accepted=" + std::to_string(d.accepted) +
             " rejected=" + std::to_string(d.rejected) + " shed=" + std::to_string(d.shed) +
             " errors=" + std::to_string(d.errors) +
             " admits=" + std::to_string(v.admit_accepted) + "/" +
             std::to_string(v.admit_rejected) + " handoffs=" + std::to_string(v.handoffs) +
             "/" + std::to_string(v.handoff_drops) + " teardowns=" + std::to_string(v.teardowns);
  return r;
}

}  // namespace

Report run_serve(const Args& args) {
  Report report;

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    serve::ServiceConfig config;
    config.cells = kCells;
    sim::Simulator simulator;
    const auto t0 = Clock::now();
    serve::AdmissionService service(config, simulator);
    setup_s.push_back(seconds_since(t0));
  }

  // Half the run replays, half drives the wall-clock service. The replays
  // come in four blocks around the three open-loop steps, so their median
  // samples the whole run rather than one stretch of it. Peak memory is
  // taken from the first block only: joined service threads leave their
  // cached stacks and heap behind.
  std::vector<double> replay_s, peak_mib;
  const auto replay_block = [&] {
    const std::vector<double> peaks = repeat_for(0.125 * args.seconds, args.max_jobs, [&] {
      const Replay r = run_replay(args.seed);
      replay_s.push_back(r.wall_s);
      const auto& d = r.drive;
      report.check(d.sent == d.accepted + d.rejected + d.shed + d.errors + d.unanswered,
                   "replay replies do not add up to requests sent");
      report.check(r.service.offered == r.service.processed + r.service.shed,
                   "replay: service offered != processed + shed");
      report.check(d.errors == 0 && d.unanswered == 0 && d.shed == 0,
                   "replay shed, refused or lost requests: " + r.digest);
      report.check(report.digest.empty() || report.digest == r.digest,
                   "repeated replay changed its outcome: " + r.digest);
      report.digest = r.digest;
      report.attempted += d.sent;
      report.failed += d.shed + d.errors + d.unanswered;
    });
    if (peak_mib.empty()) peak_mib = peaks;
  };

  // Two fixed rates below the knee and one overload rate (~1.5x the knee).
  replay_block();
  const Step r15 = run_step(15000.0, 0.1 * args.seconds, args.seed);
  replay_block();
  const Step r30 = run_step(30000.0, 0.2 * args.seconds, args.seed + 1);
  replay_block();
  const Step r150 = run_step(150000.0, 0.1 * args.seconds, args.seed + 2);
  replay_block();

  // Failed: unanswered requests, requests the ring refused, and error
  // replies no earlier shed explains. A shed request (and the errors its
  // fallout causes) counts as missing the latency limit instead: it enters
  // the latency percentiles as infinitely late, below the knee, and against
  // sustained_rps at overload, where shedding is the designed response.
  for (const Step* s : {&r15, &r30, &r150}) {
    check_step(*s, report);
    report.attempted += s->sent;
    report.failed += s->unanswered + s->backpressure + s->unexplained_errors;
  }

  const double setup = median(setup_s);
  const double rss = median(peak_mib);
  const double sustained = r150.sustained_rps();
  const double wall = median(replay_s);
  report.end_to_end = {
      {"wall_s", wall, "s"},
      {"setup_s", setup, "s"},
      {"peak_rss_mib", rss, "MiB"},
  };
  report.detail = {
      {"wall_s", wall, "s"},
      {"setup_s", setup, "s"},
      {"peak_rss_mib", rss, "MiB"},
      {"lat_p50_us.r15k", r15.latency_q(0.5), "us"},
      {"lat_p999_us.r15k", r15.windowed_latency_q(0.999), "us"},
      {"lat_p50_us.r30k", r30.latency_q(0.5), "us"},
      {"lat_p99_us.r30k", r30.windowed_latency_q(0.99), "us"},
      {"lat_p999_us.r30k", r30.windowed_latency_q(0.999), "us"},
      {"sustained_rps.r150k", sustained, "1/s"},
      {"over_slo.r15k", double(r15.over_slo), "count"},
      {"over_slo.r30k", double(r30.over_slo), "count"},
      {"shed.r15k", double(r15.shed), "count"},
      {"shed.r30k", double(r30.shed), "count"},
  };
  if (args.ladder) {
    report.detail.push_back({"max_rps_under_slo", climb_ladder(args.seed + 3), "1/s"});
  }

  if (kTraced) {
    add_entry_layers(report);
    double offered = 0, errors = 0, accepted = 0, rejected = 0;
    for (const Step* s : {&r15, &r30, &r150}) {
      offered += double(s->service.offered);
      errors += double(s->service.errors);
      accepted += double(s->service.admit_accepted);
      rejected += double(s->service.admit_rejected);
    }
    report.layers.push_back({"serve.queue_wait_us.p50", quantile(r30.queue_wait_us, 0.5), "us"});
    report.layers.push_back({"serve.queue_wait_us.p99", quantile(r30.queue_wait_us, 0.99), "us"});
    report.layers.push_back({"serve.service_us.p50", quantile(r30.service_us, 0.5), "us"});
    report.layers.push_back({"serve.service_us.p99", quantile(r30.service_us, 0.99), "us"});
    report.layers.push_back({"serve.reply_us.p50", quantile(r30.reply_us, 0.5), "us"});
    report.layers.push_back({"serve.reply_us.p99", quantile(r30.reply_us, 0.99), "us"});
    report.layers.push_back(
        {"serve.shed_ratio",
         ratio(double(r150.service.shed), double(r150.service.offered)), "ratio"});
    report.layers.push_back({"serve.error_ratio", ratio(errors, offered), "ratio"});
    report.layers.push_back({"core.admit_accept_ratio", ratio(accepted, accepted + rejected),
                             "ratio"});
    report.layers.push_back({"driver.late_us.p50", quantile(r150.late_us, 0.5), "us"});
    report.layers.push_back({"driver.late_us.p99", quantile(r150.late_us, 0.99), "us"});
  }
  return report;
}

}  // namespace perfbench
