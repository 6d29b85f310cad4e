// edabench — the repository benchmark binary.
//
//   edabench --workload <characterize|plan|fleet|serve> --seed N
//            --seconds S --trace 0|1 [--git-rev REV] [--out DIR]
//
// --trace 0 measures the end-to-end metrics of one workload: repeated
// set-ups (median reported), then a fixed budget of identical rounds sized
// from --seconds, then the workload's correctness gate. --trace 1 is the
// per-layer run: every workload, the named one first, runs one untraced
// and one traced round with benchmark spans around the public layer calls,
// plus its gate and its layer probes. The program's own tracer stays off.
//
// The last stdout line is the result object {correct, attempted, failed,
// metrics}; the line before it carries the host block, settings and the
// exact work counters. With --out, the traced run also writes a Chrome
// trace and a per-layer self-time table per workload into DIR.

#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace edabench;

constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 25;
constexpr double kMinSetupSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_rev = "unknown";
  std::string out_dir;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "edabench: %s\nusage: edabench --workload <characterize|plan|"
               "fleet|serve> --seed N --seconds S --trace 0|1 "
               "[--git-rev REV] [--out DIR]\n",
               error.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed wants an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) usage("--seconds wants > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--git-rev") {
      args.git_rev = value;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const auto& name : workload_names()) known |= name == args.workload;
  if (!known) usage("unknown workload '" + args.workload + "'");
  return args;
}

/// Appends one element to the body of a JSON array or object.
void append(std::string& out, const std::string& element) {
  if (out.size() > 1) out += ',';
  out += element;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  out += json_escape(text);
  out += '"';
  return out;
}

std::string field(std::string_view name, const std::string& json) {
  return json_string(name) + ":" + json;
}

std::string host_block(const Args& args) {
  utsname uts{};
  uname(&uts);
  std::string out = "{";
  append(out, field("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))));
  append(out, field("machine", json_string(uts.machine)));
  append(out, field("kernel", json_string(uts.release)));
  append(out, field("compiler", json_string(__VERSION__)));
  append(out, field("build_type", json_string(EDABENCH_BUILD_TYPE)));
  append(out, field("git_rev", json_string(args.git_rev)));
  return out + "}";
}

std::string counters_json(const std::map<std::string, std::uint64_t>& c) {
  std::string out = "{";
  for (const auto& [name, value] : c) {
    append(out, field(name, std::to_string(value)));
  }
  return out + "}";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    append(out, field(m.name, "{\"value\":" + json_number(m.value) +
                                  ",\"unit\":" + json_string(m.unit) + "}"));
  }
  return out + "}";
}

std::string numbers_json(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) append(out, json_number(v));
  return out + "]";
}

std::string strings_json(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const auto& item : items) append(out, json_string(item));
  return out + "]";
}

/// Every round of one budget must do exactly the work of the first.
void check_counters_repeat(const std::string& workload, const Timed& timed,
                           std::vector<std::string>& problems) {
  for (std::size_t r = 1; r < timed.round_counters.size(); ++r) {
    if (timed.round_counters[r] != timed.round_counters.front()) {
      problems.push_back(workload + ": work counters of round " +
                         std::to_string(r + 1) + " differ from round 1");
      return;
    }
  }
}

std::string layer_table_text(const SpanRecorder& spans) {
  std::string out = "layer            spans     self_s   self_cpu_s    total_s\n";
  for (const auto& [layer, row] : spans.layer_table()) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-14s %7llu %10.4f %12.4f %10.4f\n",
                  layer.c_str(), static_cast<unsigned long long>(row.spans),
                  row.self_s, row.self_cpu_s, row.total_s);
    out += line;
  }
  return out;
}

/// Reports gate failures on stderr and prints the result object as the
/// last stdout line. A run whose gate failed counts every attempted
/// operation as failed.
void print_result(const std::vector<std::string>& problems,
                  std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& p : problems) {
    std::fprintf(stderr, "GATE FAILED: %s\n", p.c_str());
  }
  const bool correct = problems.empty();
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(correct ? failed : attempted),
              metrics_json(metrics).c_str());
}

int measure(const Args& args) {
  auto workload = make_workload(args.workload, args.seed);
  SpanRecorder off(false);

  // Cheap set-ups repeat until they add up to a measurable span, so their
  // median is not a single scheduler tick.
  std::vector<double> setups;
  double setup_total = 0.0;
  while (setups.size() < kMinSetups ||
         (setup_total < kMinSetupSeconds && setups.size() < kMaxSetups)) {
    const double t0 = wall_now();
    workload->setup(off);
    setups.push_back(wall_now() - t0);
    setup_total += setups.back();
  }
  const int rounds = std::max(
      1, static_cast<int>(std::lround(args.seconds / workload->round_seconds())));
  const Timed timed = workload->run(rounds, off);

  std::vector<std::string> problems;
  check_counters_repeat(args.workload, timed, problems);
  workload->gate(timed, problems);

  // Rounds are identical work, so the median round stands for the run: a
  // burst of interference from a co-tenant moves one round, not the result.
  const double ops_per_round = static_cast<double>(timed.ops) / rounds;
  const std::vector<Metric> metrics = {
      {"setup_s", median(setups), "s"},
      {"throughput", ops_per_round / median(timed.round_wall_s), "1/s"},
      {"cpu_s", median(timed.round_cpu_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };

  std::printf(
      "{\"host\":%s,\"workload\":\"%s\",\"seed\":%llu,\"rounds\":%d,"
      "\"setups\":%zu,\"settings\":%s,"
      "\"round_wall_s\":%s,\"round_cpu_s\":%s,\"counters\":%s,"
      "\"problems\":%s}\n",
      host_block(args).c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), rounds, setups.size(),
      workload->settings().c_str(),
      numbers_json(timed.round_wall_s).c_str(),
      numbers_json(timed.round_cpu_s).c_str(),
      counters_json(timed.round_counters.front()).c_str(),
      strings_json(problems).c_str());
  print_result(problems, timed.ops + timed.failed, timed.failed, metrics);
  return 0;
}

int traced(const Args& args) {
  std::vector<std::string> order = {args.workload};
  for (const auto& name : workload_names()) {
    if (name != args.workload) order.push_back(name);
  }
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string details = "{";
  for (const auto& name : order) {
    auto workload = make_workload(name, args.seed);
    SpanRecorder spans(true);
    SpanRecorder off(false);
    workload->setup(spans);
    const Timed plain = workload->run(1, off);
    const Timed traced_round = workload->run(1, spans);
    if (plain.round_counters.front() != traced_round.round_counters.front()) {
      problems.push_back(name + ": traced round did different work");
    }
    workload->gate(traced_round, problems);
    workload->probe(traced_round, spans, metrics);
    const double plain_rate =
        static_cast<double>(plain.ops) / plain.round_wall_s.front();
    const double traced_rate = static_cast<double>(traced_round.ops) /
                               traced_round.round_wall_s.front();
    metrics.push_back({"obs.trace_overhead." + name,
                       plain_rate / traced_rate - 1.0, "ratio"});
    attempted += plain.ops + plain.failed + traced_round.ops + traced_round.failed;
    failed += plain.failed + traced_round.failed;

    const std::string table = layer_table_text(spans);
    std::fprintf(stderr, "== %s per-layer self time (traced round)\n%s",
                 name.c_str(), table.c_str());
    std::string entry = "{";
    append(entry, field("settings", workload->settings()));
    append(entry, field("counters",
                        counters_json(traced_round.round_counters.front())));
    append(details, field(name, entry + "}"));
    if (!args.out_dir.empty()) {
      std::filesystem::create_directories(args.out_dir);
      const std::string base = args.out_dir + "/" + name;
      std::ofstream(base + ".trace.json")
          << spans.chrome_trace("{\"host\":" + host_block(args) +
                                ",\"settings\":" + workload->settings() + "}");
      std::ofstream(base + ".layers.txt") << table;
    }
  }
  std::printf("{\"host\":%s,\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,"
              "\"problems\":%s}\n",
              host_block(args).c_str(), args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), (details + "}").c_str(),
              strings_json(problems).c_str());
  print_result(problems, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return args.trace ? traced(args) : measure(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "edabench: %s\n", e.what());
    return 1;
  }
}
