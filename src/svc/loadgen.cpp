#include "svc/loadgen.hpp"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

namespace edacloud::svc {

using util::JsonParseResult;
using util::JsonValue;
using util::parse_json;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

/// The per-request stream: everything about request `id` — its type and
/// parameters — comes from this generator, so content is independent of
/// which connection or instant carries it.
util::Rng request_rng(const LoadgenConfig& config, std::uint64_t id) {
  std::uint64_t state = config.seed;
  const std::uint64_t a = util::splitmix64(state);
  state ^= id;
  const std::uint64_t b = util::splitmix64(state);
  return util::Rng(a ^ b);
}

RequestType draw_type(const std::string& mix, util::Rng& rng) {
  if (mix == "echo") return RequestType::kEcho;
  if (mix == "mixed") {
    const double roll = rng.next_double();
    if (roll < 0.70) return RequestType::kPredict;
    if (roll < 0.85) return RequestType::kOptimize;
    if (roll < 0.95) return RequestType::kRunStage;
    return RequestType::kCharacterize;
  }
  if (mix == "predict-heavy") {
    // The micro-batching stress mix: ~90% predicts over a wider design
    // pool (see make_request), with enough echo traffic interleaved that
    // the batch collector must skip over non-predict items correctly.
    return rng.next_double() < 0.90 ? RequestType::kPredict
                                    : RequestType::kEcho;
  }
  return RequestType::kPredict;
}

const char* kJobNames[] = {"synthesis", "placement", "routing", "sta"};

struct PerThread {
  std::vector<std::pair<std::uint64_t, std::string>> responses;
  std::vector<double> latencies_ms;  // measured window only
  std::uint64_t sent = 0;
  std::uint64_t transport_errors = 0;
  std::array<std::uint64_t, 5> by_type{};
};

struct SharedState {
  std::atomic<std::uint64_t> next_id{1};
  Clock::time_point start;
  Clock::time_point warmup_end;
  Clock::time_point send_end;  // time mode: no departures after this
};

/// Claim the next request id, or 0 when the budget/window is exhausted.
std::uint64_t claim_id(const LoadgenConfig& config, SharedState& shared) {
  if (config.requests > 0) {
    const std::uint64_t id = shared.next_id.fetch_add(1);
    return id <= config.requests ? id : 0;
  }
  if (Clock::now() >= shared.send_end) return 0;
  return shared.next_id.fetch_add(1);
}

void record_response(const LoadgenConfig& config, const SharedState& shared,
                     PerThread& out, std::uint64_t id, std::string response,
                     Clock::time_point sent_at, Clock::time_point got_at) {
  const bool measured =
      config.requests > 0 || sent_at >= shared.warmup_end;
  if (measured) {
    out.latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(got_at - sent_at).count());
  }
  out.responses.emplace_back(id, std::move(response));
}

void closed_loop(const LoadgenConfig& config, SharedState& shared,
                 PerThread& out) {
  Client client;
  std::string error;
  if (!client.connect(config.host, config.port, &error)) {
    ++out.transport_errors;
    return;
  }
  while (true) {
    const std::uint64_t id = claim_id(config, shared);
    if (id == 0) return;
    util::Rng rng = request_rng(config, id);
    const RequestType type = draw_type(config.mix, rng);
    const std::string payload = make_request(config, id);
    ++out.sent;
    ++out.by_type[static_cast<int>(type)];
    const Clock::time_point t0 = Clock::now();
    std::string response;
    if (!client.roundtrip(payload, &response)) {
      ++out.transport_errors;
      return;  // connection is unusable past a framing/socket error
    }
    record_response(config, shared, out, id, std::move(response), t0,
                    Clock::now());
  }
}

void open_loop(const LoadgenConfig& config, SharedState& shared,
               PerThread& out, int conn_index) {
  Client client;
  std::string error;
  if (!client.connect(config.host, config.port, &error)) {
    ++out.transport_errors;
    return;
  }
  const double rate =
      std::max(0.001, config.qps / std::max(1, config.connections));
  // Schedule randomness is separate from request content: reseeding here
  // never changes what any request id asks for.
  util::Rng schedule_rng(config.seed * 0x9E3779B97F4A7C15ULL +
                         static_cast<std::uint64_t>(conn_index) + 1);
  const auto exp_gap = [&] {
    const double u = std::max(1e-12, 1.0 - schedule_rng.next_double());
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(u) / rate));
  };

  Clock::time_point next_send = Clock::now() + exp_gap();
  std::map<std::uint64_t, Clock::time_point> inflight;
  bool sending = true;
  std::vector<std::string> frames;
  const auto drain_deadline_after_send_end = std::chrono::seconds(10);
  Clock::time_point drain_deadline{};

  while (true) {
    const Clock::time_point now = Clock::now();
    if (sending && now >= next_send) {
      const std::uint64_t id = claim_id(config, shared);
      if (id == 0) {
        sending = false;
        drain_deadline = now + drain_deadline_after_send_end;
      } else {
        util::Rng rng = request_rng(config, id);
        const RequestType type = draw_type(config.mix, rng);
        ++out.sent;
        ++out.by_type[static_cast<int>(type)];
        const Clock::time_point t0 = Clock::now();
        if (!client.send(make_request(config, id))) {
          out.transport_errors += 1 + inflight.size();
          return;
        }
        inflight.emplace(id, t0);
        next_send += exp_gap();
        continue;  // catch up on a backlogged schedule before polling
      }
    }
    if (!sending && inflight.empty()) return;
    if (!sending && Clock::now() >= drain_deadline) {
      out.transport_errors += inflight.size();  // replies never arrived
      return;
    }

    int timeout_ms = 50;
    if (sending) {
      const auto until = next_send - Clock::now();
      timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(until)
              .count(),
          0, 50));
    }
    pollfd pfd{client.fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) continue;
    frames.clear();
    const bool alive = client.drain(&frames);
    const Clock::time_point got_at = Clock::now();
    for (std::string& frame : frames) {
      const JsonParseResult parsed = parse_json(frame);
      const std::uint64_t id = parsed.ok
                                   ? static_cast<std::uint64_t>(
                                         parsed.value.number_or("id", 0.0))
                                   : 0;
      const auto it = inflight.find(id);
      if (it == inflight.end()) {
        ++out.transport_errors;  // unmatched reply (e.g. id 0 error frame)
        continue;
      }
      record_response(config, shared, out, id, std::move(frame), it->second,
                      got_at);
      inflight.erase(it);
    }
    if (!alive) {
      out.transport_errors += inflight.size();
      return;
    }
  }
}

}  // namespace

const std::vector<std::string>& loadgen_mix_names() {
  static const std::vector<std::string> names = {"predict", "predict-heavy",
                                                 "echo", "mixed"};
  return names;
}

std::string make_request(const LoadgenConfig& config, std::uint64_t id) {
  util::Rng rng = request_rng(config, id);
  const RequestType type = draw_type(config.mix, rng);

  JsonValue request = JsonValue::object();
  request.set("id", JsonValue::of(id));
  request.set("type", JsonValue::of(to_string(type)));
  if (type == RequestType::kEcho) {
    request.set("payload", JsonValue::of("ping-" + std::to_string(id)));
  } else {
    const auto& families = workloads::families();
    // predict-heavy draws from fewer families but two corpus sizes each:
    // a 2x-wider design pool than "predict", with repeats frequent enough
    // that in-batch dedup and the prediction cache both get exercised.
    const bool heavy = config.mix == "predict-heavy";
    const std::size_t pick = static_cast<std::size_t>(rng.next_below(
        std::min<std::uint64_t>(families.size(), heavy ? 6 : 8)));
    const auto& info = families[pick];
    int size = info.corpus_sizes.empty() ? 32 : info.corpus_sizes.front();
    if (heavy && info.corpus_sizes.size() > 1 && rng.next_bool(0.5)) {
      size = info.corpus_sizes[1];
    }
    request.set("family", JsonValue::of(info.name));
    request.set("size", JsonValue::of(size));
    switch (type) {
      case RequestType::kPredict:
        request.set("job",
                    JsonValue::of(kJobNames[rng.next_below(4)]));
        break;
      case RequestType::kOptimize:
        request.set("deadline_s",
                    JsonValue::of(rng.next_double(100.0, 100000.0)));
        request.set("spot", JsonValue::of(rng.next_bool(0.5)));
        break;
      case RequestType::kRunStage:
        request.set("stage",
                    JsonValue::of(kJobNames[rng.next_below(4)]));
        break;
      default:
        break;
    }
  }
  if (config.deadline_ms > 0.0) {
    request.set("deadline_ms", JsonValue::of(config.deadline_ms));
  }
  return request.dump();
}

LoadgenReport run_loadgen(const LoadgenConfig& config) {
  const int conns = std::max(1, config.connections);
  SharedState shared;
  shared.start = Clock::now();
  shared.warmup_end =
      shared.start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.warmup_s));
  shared.send_end =
      shared.warmup_end + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  config.duration_s));

  std::vector<PerThread> per_thread(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (int i = 0; i < conns; ++i) {
    threads.emplace_back([&, i] {
      if (config.mode == LoadMode::kClosed) {
        closed_loop(config, shared, per_thread[i]);
      } else {
        open_loop(config, shared, per_thread[i], i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - shared.start).count();

  LoadgenReport report;
  report.elapsed_s = elapsed;
  std::vector<std::pair<std::uint64_t, std::string>> responses;
  util::Histogram latency(0.0, 2000.0, 8000);
  for (PerThread& pt : per_thread) {
    report.sent += pt.sent;
    report.transport_errors += pt.transport_errors;
    for (int t = 0; t < 5; ++t) report.by_type[t] += pt.by_type[t];
    for (const double ms : pt.latencies_ms) latency.add(ms);
    std::move(pt.responses.begin(), pt.responses.end(),
              std::back_inserter(responses));
    pt.responses.clear();
  }
  if (responses.empty() && report.sent == 0) {
    throw std::runtime_error("loadgen: no connection could be established");
  }

  // Canonical order: ascending request id. Two runs that received the same
  // response bytes per id fold to the same digest no matter how the
  // schedule interleaved them.
  std::sort(responses.begin(), responses.end());
  std::uint64_t digest = kFnvOffset;
  for (const auto& [id, response] : responses) {
    unsigned char id_bytes[8];
    for (int b = 0; b < 8; ++b) {
      id_bytes[b] = static_cast<unsigned char>((id >> (8 * b)) & 0xFF);
    }
    digest = fnv1a(digest, id_bytes, sizeof(id_bytes));
    digest = fnv1a(digest, response.data(), response.size());
    const unsigned char sep = 0xFF;
    digest = fnv1a(digest, &sep, 1);
    if (response.find("\"ok\":true") != std::string::npos) {
      ++report.ok;
    } else {
      ++report.errors;
    }
  }
  report.digest = digest;
  report.latency_ms = latency.summary();
  const double measured_window =
      config.requests > 0 ? elapsed
                          : std::max(1e-9, elapsed - config.warmup_s);
  report.throughput_rps =
      static_cast<double>(report.latency_ms.count) / measured_window;
  return report;
}

std::string LoadgenReport::export_json() const {
  JsonValue out = JsonValue::object();
  out.set("requests", JsonValue::of(sent));
  out.set("ok", JsonValue::of(ok));
  out.set("errors", JsonValue::of(errors));
  out.set("transport_errors", JsonValue::of(transport_errors));
  JsonValue types = JsonValue::object();
  for (int t = 0; t < 5; ++t) {
    types.set(to_string(static_cast<RequestType>(t)),
              JsonValue::of(by_type[static_cast<std::size_t>(t)]));
  }
  out.set("by_type", std::move(types));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  out.set("digest", JsonValue::of(hex));
  return out.dump();
}

std::string LoadgenReport::render() const {
  const auto fmt = [](double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    return std::string(buf);
  };
  util::Table table({"metric", "value"});
  table.add_row({"requests sent", std::to_string(sent)});
  table.add_row({"ok", std::to_string(ok)});
  table.add_row({"error replies", std::to_string(errors)});
  table.add_row({"transport errors", std::to_string(transport_errors)});
  table.add_row({"elapsed (s)", fmt(elapsed_s)});
  table.add_row({"throughput (req/s)", fmt(throughput_rps)});
  table.add_separator();
  table.add_row({"measured samples", std::to_string(latency_ms.count)});
  if (latency_ms.count > 0) {
    table.add_row({"latency mean (ms)", fmt(latency_ms.mean)});
    table.add_row({"latency p50 (ms)", fmt(latency_ms.p50)});
    table.add_row({"latency p90 (ms)", fmt(latency_ms.p90)});
    table.add_row({"latency p99 (ms)", fmt(latency_ms.p99)});
    table.add_row({"latency p99.9 (ms)", fmt(latency_ms.p999)});
  }
  return table.render();
}

}  // namespace edacloud::svc
