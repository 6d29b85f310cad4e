#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "counter_pins.hpp"
#include "place/placer.hpp"
#include "sta/sta.hpp"
#include "synth/engine.hpp"
#include "workloads/generators.hpp"

namespace edacloud::sta {
namespace {

const nl::CellLibrary& library() {
  static const nl::CellLibrary lib = nl::make_generic_14nm_library();
  return lib;
}

nl::Netlist synthesize(const nl::Aig& aig) {
  synth::SynthesisEngine engine(library());
  return engine.synthesize(aig, synth::default_recipe()).netlist;
}

TEST(StaTest, ArrivalsMonotoneAlongCriticalPath) {
  const nl::Netlist netlist = synthesize(workloads::gen_adder(8));
  StaEngine engine;
  const TimingReport report = engine.run(netlist, nullptr, {});
  ASSERT_GE(report.critical_path.size(), 2u);
  for (std::size_t i = 1; i < report.critical_path.size(); ++i) {
    EXPECT_GE(report.arrival_ps[report.critical_path[i]],
              report.arrival_ps[report.critical_path[i - 1]]);
  }
}

TEST(StaTest, CriticalPathEndsAtWorstOutput) {
  const nl::Netlist netlist = synthesize(workloads::gen_adder(8));
  StaEngine engine;
  const TimingReport report = engine.run(netlist, nullptr, {});
  double worst = 0.0;
  for (nl::NodeId id : netlist.outputs()) {
    worst = std::max(worst, report.arrival_ps[id]);
  }
  EXPECT_DOUBLE_EQ(report.critical_path_ps, worst);
  ASSERT_FALSE(report.critical_path.empty());
  EXPECT_DOUBLE_EQ(report.arrival_ps[report.critical_path.back()], worst);
}

TEST(StaTest, AutoPeriodLeavesPositiveSlack) {
  const nl::Netlist netlist = synthesize(workloads::gen_alu(8));
  StaEngine engine;
  const TimingReport report = engine.run(netlist, nullptr, {});
  EXPECT_GT(report.worst_slack_ps, 0.0);
  EXPECT_EQ(report.violating_endpoints, 0u);
  EXPECT_NEAR(report.clock_period_ps, report.critical_path_ps * 1.05,
              1e-6);
}

TEST(StaTest, TightClockCreatesViolations) {
  const nl::Netlist netlist = synthesize(workloads::gen_alu(8));
  StaEngine relaxed;
  const double critical = relaxed.run(netlist, nullptr, {}).critical_path_ps;

  StaOptions options;
  options.clock_period_ps = critical * 0.5;
  StaEngine tight(options);
  const TimingReport report = tight.run(netlist, nullptr, {});
  EXPECT_LT(report.worst_slack_ps, 0.0);
  EXPECT_GT(report.violating_endpoints, 0u);
}

TEST(StaTest, WorstSlackConsistentWithPeriod) {
  const nl::Netlist netlist = synthesize(workloads::gen_parity(16));
  StaOptions options;
  options.clock_period_ps = 10000.0;
  StaEngine engine(options);
  const TimingReport report = engine.run(netlist, nullptr, {});
  EXPECT_NEAR(report.worst_slack_ps,
              options.clock_period_ps - report.critical_path_ps, 1e-6);
}

TEST(StaTest, SlackNonNegativeEverywhereWhenMet) {
  const nl::Netlist netlist = synthesize(workloads::gen_comparator(8));
  StaEngine engine;
  const TimingReport report = engine.run(netlist, nullptr, {});
  for (nl::NodeId id = 0; id < netlist.node_count(); ++id) {
    EXPECT_GE(report.slack_ps[id], -1e-6) << id;
  }
}

TEST(StaTest, PlacementAwareDelaysAreLarger) {
  const nl::Netlist netlist = synthesize(workloads::gen_alu(8));
  place::QuadraticPlacer placer;
  const auto placement = placer.place(netlist);
  StaEngine engine;
  const double without =
      engine.run(netlist, nullptr, {}).critical_path_ps;
  const double with =
      engine.run(netlist, &placement, {}).critical_path_ps;
  // Real wire lengths generally exceed the fanout-based default estimate
  // for at least part of the die; both must be positive and same order.
  EXPECT_GT(without, 0.0);
  EXPECT_GT(with, 0.0);
  EXPECT_LT(with / without, 50.0);
  EXPECT_GT(with / without, 0.02);
}

TEST(StaTest, DeeperLogicHasLongerCriticalPath) {
  const nl::Netlist shallow = synthesize(workloads::gen_parity(16));
  const nl::Netlist deep = synthesize(workloads::gen_multiplier(8));
  StaEngine engine;
  EXPECT_LT(engine.run(shallow, nullptr, {}).critical_path_ps,
            engine.run(deep, nullptr, {}).critical_path_ps);
}

TEST(StaTest, InstrumentedRunHasFpSignature) {
  const nl::Netlist netlist = synthesize(workloads::gen_alu(8));
  const auto ladder = perf::vm_ladder(perf::InstanceFamily::kGeneralPurpose);
  StaEngine engine;
  const TimingReport report =
      engine.run(netlist, nullptr, {ladder.begin(), ladder.end()});
  ASSERT_EQ(report.profile.counts.size(), 4u);
  // STA is FP-heavy (library lookups) but less AVX-pure than placement.
  EXPECT_GT(report.profile.counts[0].avx_fraction(), 0.3);
  EXPECT_GT(report.profile.counts[0].fp_ops, 0u);
  EXPECT_GT(report.profile.tasks.task_count(), 0u);
}

/// FNV-1a over every element's bits (a double by its IEEE-754 pattern).
template <typename T>
std::uint64_t hash_values(const std::vector<T>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const T& value : values) {
    std::uint64_t bits = 0;
    if constexpr (std::is_same_v<T, double>) {
      bits = std::bit_cast<std::uint64_t>(value);
    } else {
      bits = value;
    }
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

TEST(StaTest, TimingReportPinned) {
  // Every scalar of a placement-aware timing report as an exact double and
  // every per-node array as a hash. The power sums fold 256-node block
  // partials in block order; a single running sum would move their bits.
  struct Case {
    const char* name;
    nl::Aig aig;
    double critical_path_ps;
    double clock_period_ps;
    double worst_slack_ps;
    std::size_t violating_endpoints;
    double leakage_power_nw;
    double dynamic_power_uw;
    std::uint64_t arrival_hash;
    std::uint64_t slack_hash;
    std::uint64_t slew_hash;
    std::uint64_t worst_parent_hash;
    std::uint64_t critical_path_hash;
  };
  const Case cases[] = {
      {"alu16", workloads::gen_alu(16), 0x1.1ee98f08c338p+11,
       0x1.2d420962ccfadp+11, 0x1.cb0f4b41385ap+6, 0, 0x1.da4ccccccccd6p+8,
       0x1.f4b48f52877c8p-6, 9871761754733966832ULL, 9166079996431096450ULL,
       164987021353442025ULL, 8012762717317768556ULL,
       4542462333357124393ULL},
      {"mul12", workloads::gen_multiplier(12), 0x1.c7ffd1db91ca7p+11,
       0x1.decc9c59bf7bp+11, 0x1.6ccca7e2db09p+7, 0, 0x1.1e1333333333cp+10,
       0x1.fd27f5e17abacp-5, 792028506441723914ULL, 1257946088734987801ULL,
       6214728539288807528ULL, 15943059201324948974ULL,
       6435590141341946917ULL},
  };
  for (const Case& pin : cases) {
    SCOPED_TRACE(pin.name);
    const nl::Netlist netlist = synthesize(pin.aig);
    const place::Placement placement = place::QuadraticPlacer().place(netlist);
    const TimingReport report = StaEngine().run(netlist, &placement, {});
    EXPECT_EQ(report.critical_path_ps, pin.critical_path_ps);
    EXPECT_EQ(report.clock_period_ps, pin.clock_period_ps);
    EXPECT_EQ(report.worst_slack_ps, pin.worst_slack_ps);
    EXPECT_EQ(report.violating_endpoints, pin.violating_endpoints);
    EXPECT_EQ(report.leakage_power_nw, pin.leakage_power_nw);
    EXPECT_EQ(report.dynamic_power_uw, pin.dynamic_power_uw);
    EXPECT_EQ(hash_values(report.arrival_ps), pin.arrival_hash);
    EXPECT_EQ(hash_values(report.slack_ps), pin.slack_hash);
    EXPECT_EQ(hash_values(report.slew_ps), pin.slew_hash);
    EXPECT_EQ(hash_values(report.worst_parent), pin.worst_parent_hash);
    EXPECT_EQ(hash_values(report.critical_path), pin.critical_path_hash);
  }
}

TEST(StaTest, EndpointCountMatchesOutputs) {
  const nl::Netlist netlist = synthesize(workloads::gen_decoder(4));
  StaEngine engine;
  const TimingReport report = engine.run(netlist, nullptr, {});
  EXPECT_EQ(report.endpoint_count, netlist.outputs().size());
}

TEST(StaPowerTest, PowerReportPopulated) {
  const nl::Netlist netlist = synthesize(workloads::gen_alu(8));
  StaEngine engine;
  const TimingReport report = engine.run(netlist, nullptr, {});
  EXPECT_GT(report.leakage_power_nw, 0.0);
  EXPECT_GT(report.dynamic_power_uw, 0.0);
}

TEST(StaSlewTest, SlewGrowsWithFanout) {
  // A cell driving many sinks sees more load -> larger output slew.
  nl::Netlist n("slew", &library());
  const auto a = n.add_input();
  const auto light = n.add_cell(*library().find("INV_X1"), {a});
  const auto heavy = n.add_cell(*library().find("INV_X1"), {a});
  n.add_output(light);
  for (int i = 0; i < 6; ++i) {
    n.add_output(n.add_cell(*library().find("BUF_X1"), {heavy}));
  }
  StaEngine engine;
  const TimingReport report = engine.run(n, nullptr, {});
  EXPECT_GT(report.slew_ps[heavy], report.slew_ps[light]);
}

TEST(StaTest, InstrumentedCountersPinnedOnBenchLadder) {
  // Every counter of an instrumented, placement-aware STA on the
  // benchmark's ladder, pinned: instrumentation refactors must leave the
  // serial event stream byte-identical.
  const nl::Netlist netlist = synthesize(workloads::gen_alu(16));
  const place::Placement placement = place::QuadraticPlacer().place(netlist);
  const TimingReport report =
      StaEngine().run(netlist, &placement, pins::bench_ladder());
  pins::expect_ladder_counts(
      report.profile, {{0, 6344, 13371, 4069, 481, 1926, 14, 4552, 424, 424},
                       {424, 424, 424, 424, 424, 424, 424, 424}});
}

/// Timing from its definition, independent of the engine: no
/// levelization, no fanout CSR, each quantity a memoized recursion.
///   arrival(v) = max(0, max over fanins u of arrival(u) + wire(u, v))
///                + gate(v)
///   required(v) = min(clock if v is an output else +inf,
///                     min over fanouts w of required(w) - gate(w)
///                                          - wire(v, w))
/// Only the library's cell delay and wire parasitics are shared with
/// src/sta. Every step is a max, a min or the same add in the same order,
/// so the engine must agree to the bit.
class ReferenceSta {
 public:
  ReferenceSta(const nl::Netlist& netlist, const place::Placement* placement,
               const StaOptions& options)
      : netlist_(netlist),
        placement_(placement != nullptr && placement->valid_for(netlist)
                       ? placement
                       : nullptr),
        options_(options),
        fanouts_(netlist.node_count()),
        is_output_(netlist.node_count(), false),
        arrival_(netlist.node_count(), kUnknown),
        required_(netlist.node_count(), kUnknown),
        gate_(netlist.node_count(), 0.0),
        slew_(netlist.node_count(), 0.0) {
    for (nl::NodeId id = 0; id < netlist.node_count(); ++id) {
      for (const nl::NodeId fanin : netlist.node(id).fanins) {
        fanouts_[fanin].push_back(id);
      }
    }
    for (const nl::NodeId id : netlist.outputs()) is_output_[id] = true;
    double critical = 0.0;
    for (const nl::NodeId id : netlist.outputs()) {
      critical = std::max(critical, arrival(id));
    }
    clock_ = options.clock_period_ps > 0.0 ? options.clock_period_ps
                                           : critical * options.slack_margin;
  }

  double arrival(nl::NodeId id) {
    if (!std::isnan(arrival_[id])) return arrival_[id];
    const nl::NetlistNode& node = netlist_.node(id);
    double latest = 0.0;
    double worst_slew = 0.0;
    if (node.kind != nl::NodeKind::kPrimaryInput) {
      for (const nl::NodeId fanin : node.fanins) {
        latest = std::max(latest, arrival(fanin) + wire_delay(fanin, id));
        worst_slew = std::max(worst_slew, slew_[fanin]);
      }
    }
    if (node.kind == nl::NodeKind::kCell) {
      const nl::Cell& cell = netlist_.library().cell(node.cell);
      const double load = load_ff(id);
      gate_[id] = cell.delay_ps(load) + options_.slew_delay_factor * worst_slew;
      slew_[id] = options_.slew_gain * cell.drive_res_kohm * load + 2.0;
    } else if (node.kind == nl::NodeKind::kPrimaryOutput) {
      slew_[id] = slew_[node.fanins[0]];
    }
    return arrival_[id] = latest + gate_[id];
  }

  double required(nl::NodeId id) {
    if (!std::isnan(required_[id])) return required_[id];
    double earliest =
        is_output_[id] ? clock_ : std::numeric_limits<double>::infinity();
    for (const nl::NodeId consumer : fanouts_[id]) {
      earliest = std::min(earliest, required(consumer) - gate_[consumer] -
                                        wire_delay(id, consumer));
    }
    return required_[id] = earliest;
  }

  double slack(nl::NodeId id) {
    const double req = required(id);
    return std::isinf(req) ? clock_ : req - arrival(id);
  }

  double slew(nl::NodeId id) {
    arrival(id);
    return slew_[id];
  }

 private:
  static constexpr double kUnknown = std::numeric_limits<double>::quiet_NaN();

  double wire_um(nl::NodeId driver, nl::NodeId consumer) const {
    if (placement_ != nullptr) {
      return std::abs(placement_->x[driver] - placement_->x[consumer]) +
             std::abs(placement_->y[driver] - placement_->y[consumer]);
    }
    return options_.default_wire_um_per_fanout *
           static_cast<double>(fanouts_[driver].size());
  }

  double pin_cap_ff(nl::NodeId consumer) const {
    const nl::NetlistNode& node = netlist_.node(consumer);
    return node.kind == nl::NodeKind::kCell
               ? netlist_.library().cell(node.cell).input_cap_ff
               : 0.0;
  }

  double load_ff(nl::NodeId driver) const {
    double load = 0.0;
    for (const nl::NodeId consumer : fanouts_[driver]) {
      load += pin_cap_ff(consumer);
      load += wire_um(driver, consumer) * netlist_.library().wire_cap_per_um();
    }
    return load;
  }

  double wire_delay(nl::NodeId driver, nl::NodeId consumer) const {
    const double length = wire_um(driver, consumer);
    const double r = netlist_.library().wire_res_per_um() * length;
    const double c = netlist_.library().wire_cap_per_um() * length;
    return r * (c * 0.5 + pin_cap_ff(consumer));
  }

  const nl::Netlist& netlist_;
  const place::Placement* placement_;
  StaOptions options_;
  std::vector<std::vector<nl::NodeId>> fanouts_;
  std::vector<bool> is_output_;
  std::vector<double> arrival_, required_, gate_, slew_;
  double clock_ = 0.0;
};

TEST(StaTest, EngineMatchesRecursiveDefinition) {
  // The characterize benchmark's design mix at its sizes plus two larger
  // designs (181 to 4,212 nodes), each with and without placement, at the
  // derived clock and at a clock tight enough to leave violations.
  const std::pair<const char*, int> designs[] = {
      {"alu", 32},  {"multiplier", 12}, {"sbox", 4},
      {"cavlc", 16}, {"i2c", 16},       {"mem_ctrl", 4},
      {"alu", 128}, {"multiplier", 20}};
  for (const auto& [family, size] : designs) {
    const nl::Netlist netlist =
        synthesize(workloads::generate({family, size, 7}));
    ASSERT_LE(netlist.node_count(), 10000u) << family;
    const place::Placement placement = place::QuadraticPlacer().place(netlist);
    const place::Placement* const wire_models[] = {&placement, nullptr};
    for (const place::Placement* where : wire_models) {
      for (const double clock : {0.0, 100.0}) {
        SCOPED_TRACE(std::string(family) + (where ? " placed" : " unplaced") +
                     " clock " + std::to_string(clock));
        StaOptions options;
        options.clock_period_ps = clock;
        const TimingReport report =
            StaEngine(options).run(netlist, where, {});
        ReferenceSta reference(netlist, where, options);
        std::size_t mismatches = 0;
        for (nl::NodeId id = 0; id < netlist.node_count(); ++id) {
          const bool same = report.arrival_ps[id] == reference.arrival(id) &&
                            report.slew_ps[id] == reference.slew(id) &&
                            report.slack_ps[id] == reference.slack(id);
          if (!same && mismatches++ == 0) {
            ADD_FAILURE() << "node " << id << ": arrival "
                          << report.arrival_ps[id] << " vs "
                          << reference.arrival(id) << ", slew "
                          << report.slew_ps[id] << " vs "
                          << reference.slew(id) << ", slack "
                          << report.slack_ps[id] << " vs "
                          << reference.slack(id);
          }
        }
        EXPECT_EQ(mismatches, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace edacloud::sta
