#pragma once
// Problem 3 — deployment optimization (§III-C, Table I, Fig. 6). Builds
// MCKP stages from per-job runtime ladders (measured or GCN-predicted) on
// each job's recommended instance family, prices them with the vendor
// catalog, and solves for the cheapest deployment under a deadline.

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "cloud/market.hpp"
#include "cloud/mckp.hpp"
#include "cloud/pricing.hpp"
#include "cloud/savings.hpp"
#include "core/characterize.hpp"

namespace edacloud::core {

/// Per-job runtime ladder (seconds at 1/2/4/8 vCPUs) on the job's
/// recommended family — the optimizer's input, regardless of whether it
/// came from measurement or prediction.
using RuntimeLadders = std::array<std::array<double, 4>, kJobCount>;

struct DeploymentPlanEntry {
  JobKind job = JobKind::kSynthesis;
  perf::InstanceFamily family = perf::InstanceFamily::kGeneralPurpose;
  int vcpus = 1;
  bool spot = false;  // spot-market instance (expected-runtime pricing)
  double runtime_seconds = 0.0;
  double cost_usd = 0.0;
};

struct DeploymentPlan {
  bool feasible = false;  // "NA" row in Table I when false
  double deadline_seconds = 0.0;
  std::vector<DeploymentPlanEntry> entries;
  double total_runtime_seconds = 0.0;
  double total_cost_usd = 0.0;
};

class DeploymentOptimizer {
 public:
  explicit DeploymentOptimizer(
      cloud::PricingCatalog catalog = cloud::PricingCatalog::aws_like())
      : catalog_(catalog) {}

  /// Offer spot instances alongside on-demand: every stage gets a second
  /// set of items priced at the spot discount with interruption-stretched
  /// expected runtimes. Deadline feasibility then holds in expectation.
  /// The flat-model overload wraps the SpotModel in a cloud::StaticMarket,
  /// so existing callers keep their exact pre-market numbers.
  void enable_spot(cloud::SpotModel spot) {
    market_ = std::make_shared<cloud::StaticMarket>(spot);
  }
  /// Price spot items against a (possibly time-varying) market's per-shape
  /// planning view: long-run mean price and expected reclaim rate.
  void enable_spot(std::shared_ptr<const cloud::Market> market) {
    market_ = std::move(market);
  }
  void disable_spot() { market_.reset(); }
  [[nodiscard]] bool spot_enabled() const { return market_ != nullptr; }

  /// MCKP stages for the four jobs (items ordered 1,2,4,8 vCPUs, then the
  /// same four on spot when spot is enabled).
  [[nodiscard]] std::vector<cloud::MckpStage> build_stages(
      const RuntimeLadders& ladders) const;
  /// The same stages written over `stages`, whose vectors and strings are
  /// reused: once `stages` has held a plan of this shape, the call
  /// allocates nothing.
  void build_stages(const RuntimeLadders& ladders,
                    std::vector<cloud::MckpStage>& stages) const;

  /// Table I row: cheapest deployment meeting `deadline_seconds`.
  [[nodiscard]] DeploymentPlan optimize(const RuntimeLadders& ladders,
                                        double deadline_seconds) const;

  /// The plan `selection` picks from `stages` (as build_stages made them),
  /// for a caller that queries one cloud::MckpFrontier many times.
  [[nodiscard]] static DeploymentPlan to_plan(
      const std::vector<cloud::MckpStage>& stages,
      const cloud::MckpSelection& selection, double deadline_seconds);

  /// Fig. 6 point: optimizer vs over-/under-provisioning at one deadline.
  [[nodiscard]] cloud::SavingsReport savings(const RuntimeLadders& ladders,
                                             double deadline_seconds) const;

  [[nodiscard]] const cloud::PricingCatalog& catalog() const {
    return catalog_;
  }

 private:
  cloud::PricingCatalog catalog_;
  std::shared_ptr<const cloud::Market> market_;
};

}  // namespace edacloud::core
