#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "cloud/savings.hpp"
#include "core/stage.hpp"
#include "nl/star_graph.hpp"
#include "obs/trace.hpp"
#include "synth/engine.hpp"
#include "tune/tuner.hpp"
#include "util/log.hpp"
#include "workloads/registry.hpp"

namespace edacloud::svc {

using util::JsonParseResult;
using util::JsonValue;
using util::parse_json;

namespace {

JsonValue runtime_array(const std::array<double, 4>& runtimes) {
  JsonValue out = JsonValue::array();
  for (const double r : runtimes) out.push_back(JsonValue::of(r));
  return out;
}

}  // namespace

void ServiceStats::export_to(obs::Registry& registry) const {
  registry.counter("svc.requests").add(requests.load());
  registry.counter("svc.errors").add(errors.load());
  for (int t = 0; t < kRequestTypeCount; ++t) {
    registry
        .counter("svc.requests_by_type",
                 {{"type", to_string(static_cast<RequestType>(t))}})
        .add(by_type[t].load());
  }
}

Service::Service(ServiceConfig config)
    : config_(config), library_(nl::make_generic_14nm_library()) {
  if (config_.predict_cache_capacity > 0) {
    predict_cache_ = std::make_unique<ml::PredictionCache>(
        config_.predict_cache_capacity);
  }
}

Service::~Service() = default;

void Service::initialize() {
  if (trained_) return;
  core::StartupPredictor startup = core::train_startup_predictor(
      library_, config_.train_designs, config_.train_recipes,
      config_.train_epochs, config_.design_seed);
  predictor_ = std::move(startup.predictor);
  trained_ = true;
  EDACLOUD_INFO << "svc: predictor trained on " << startup.netlist_count
                << " netlists from " << startup.design_count << " designs";
}

std::string Service::handle_payload(const std::string& payload) {
  const JsonParseResult parsed = parse_json(payload);
  if (!parsed.ok) {
    return error_response(0, kErrBadRequest, "invalid JSON: " + parsed.error);
  }
  const ParsedRequest request = parse_request(parsed.value);
  if (!request.ok) {
    return error_response(request.request.id, request.code, request.error);
  }
  return handle(request.request);
}

std::string Service::handle(const Request& request) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  stats_.by_type[static_cast<int>(request.type)].fetch_add(
      1, std::memory_order_relaxed);
  const std::string span_name = std::string("svc/") + to_string(request.type);
  TRACE_SPAN(span_name, "svc");
  try {
    JsonValue response = response_header(request);
    JsonValue payload;
    switch (request.type) {
      case RequestType::kCharacterize:
        payload = do_characterize(request);
        break;
      case RequestType::kPredict:
        payload = do_predict(request);
        break;
      case RequestType::kOptimize:
        payload = do_optimize(request);
        break;
      case RequestType::kRunStage:
        payload = do_run_stage(request);
        break;
      case RequestType::kEcho:
        payload = do_echo(request);
        break;
      case RequestType::kTune:
        payload = do_tune(request);
        break;
    }
    response.set("payload", std::move(payload));
    return response.dump();
  } catch (const std::exception& e) {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    return error_response(request.id, kErrInternal, e.what());
  }
}

nl::Aig Service::make_design(const Request& request) const {
  workloads::BenchmarkSpec spec;
  spec.family = request.family;
  spec.size = request.size;
  spec.seed = config_.design_seed;
  return workloads::generate(spec);
}

Service::CachedSample Service::sample_for(const Request& request,
                                          core::JobKind job) {
  const bool aig_side = job == core::JobKind::kSynthesis;
  const std::string key =
      request.family + "/" + std::to_string(request.size);
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto& cache = aig_side ? aig_samples_ : netlist_samples_;
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  // Compute outside the lock (concurrent misses may duplicate work once;
  // first insertion wins so every caller sees one canonical sample). The
  // content key is memoized alongside so the prediction-cache hot path
  // never re-hashes the feature matrix.
  const nl::Aig design = make_design(request);
  CachedSample entry;
  if (aig_side) {
    entry.sample = std::make_shared<const ml::GraphSample>(
        ml::sample_from_graph(nl::graph_from_aig(design)));
  } else {
    synth::SynthesisEngine engine(library_);
    const auto mapped = engine.synthesize(design, synth::default_recipe());
    entry.sample = std::make_shared<const ml::GraphSample>(
        ml::sample_from_graph(nl::graph_from_netlist(mapped.netlist)));
  }
  entry.key = ml::content_key(*entry.sample);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto& cache = aig_side ? aig_samples_ : netlist_samples_;
  const auto [it, inserted] = cache.emplace(key, std::move(entry));
  return it->second;
}

std::array<double, 4> Service::predict_runtimes(core::JobKind job,
                                                const CachedSample& cached) {
  const ml::ContentKey key =
      cached.key.salted(static_cast<std::uint64_t>(job) + 1);
  if (predict_cache_ != nullptr) {
    if (const auto hit = predict_cache_->lookup(key)) return *hit;
  }
  // A one-sample batch: bit-equal to RuntimePredictor::predict, without
  // the training forward pass's kept intermediates.
  const std::vector<ml::ContentKey> keys = {cached.key};
  const std::array<double, 4> runtimes =
      predictor_.predict_batch(job, {cached.sample.get()}, &keys).front();
  if (predict_cache_ != nullptr) predict_cache_->insert(key, runtimes);
  return runtimes;
}

JsonValue Service::predict_payload(const Request& request,
                                   const std::array<double, 4>& runtimes) {
  JsonValue payload = JsonValue::object();
  payload.set("family", JsonValue::of(request.family));
  payload.set("size", JsonValue::of(request.size));
  payload.set("job", JsonValue::of(core::job_name(request.job)));
  JsonValue vcpus = JsonValue::array();
  for (const int v : {1, 2, 4, 8}) vcpus.push_back(JsonValue::of(v));
  payload.set("vcpus", std::move(vcpus));
  payload.set("runtime_seconds", runtime_array(runtimes));
  return payload;
}

JsonValue Service::do_characterize(const Request& request) {
  const nl::Aig design = make_design(request);
  // Instrumented flows publish into the process-global registry; one at a
  // time (see the class comment).
  std::lock_guard<std::mutex> lock(instrumented_mutex_);
  const core::Characterizer characterizer(library_);
  const core::CharacterizationReport report =
      characterizer.characterize(design);

  JsonValue payload = JsonValue::object();
  payload.set("design", JsonValue::of(report.design_name));
  payload.set("instances", JsonValue::of(
                               static_cast<double>(report.instance_count)));
  JsonValue rows = JsonValue::array();
  for (const auto& row : report.rows) {
    JsonValue entry = JsonValue::object();
    entry.set("job", JsonValue::of(core::job_name(row.job)));
    entry.set("family", JsonValue::of(std::string(perf::to_string(
                            row.family))));
    entry.set("runtime_seconds", runtime_array(row.runtime_seconds));
    entry.set("speedup", runtime_array(row.speedup));
    rows.push_back(std::move(entry));
  }
  payload.set("rows", std::move(rows));
  return payload;
}

JsonValue Service::do_predict(const Request& request) {
  if (!trained_) {
    throw std::runtime_error("predictor not trained (initialize() skipped)");
  }
  const CachedSample cached = sample_for(request, request.job);
  return predict_payload(request, predict_runtimes(request.job, cached));
}

std::vector<std::string> Service::handle_predict_batch(
    const std::vector<Request>& requests) {
  std::vector<std::string> responses(requests.size());
  if (requests.empty()) return responses;
  TRACE_SPAN("svc/predict-batch", "svc");

  // Phase 1: per-request bookkeeping, sample resolution and cache lookup.
  // Failures resolve immediately with the same error bytes handle() emits.
  struct Pending {
    std::size_t index;
    core::JobKind job;
    CachedSample cached;
  };
  std::vector<Pending> misses;
  std::vector<std::array<double, 4>> runtimes(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    if (request.type != RequestType::kPredict) {
      responses[i] = handle(request);  // stats bumped inside
      continue;
    }
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    stats_.by_type[static_cast<int>(request.type)].fetch_add(
        1, std::memory_order_relaxed);
    if (!trained_) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      responses[i] = error_response(
          request.id, kErrInternal,
          "predictor not trained (initialize() skipped)");
      continue;
    }
    try {
      Pending pending{i, request.job, sample_for(request, request.job)};
      const ml::ContentKey key = pending.cached.key.salted(
          static_cast<std::uint64_t>(request.job) + 1);
      if (predict_cache_ != nullptr) {
        if (const auto hit = predict_cache_->lookup(key)) {
          runtimes[i] = *hit;
          continue;
        }
      }
      misses.push_back(std::move(pending));
    } catch (const std::exception& e) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      responses[i] = error_response(request.id, kErrInternal, e.what());
    }
  }

  // Phase 2: one merged forward pass per job over the misses.
  for (const core::JobKind job : core::kAllJobs) {
    std::vector<const ml::GraphSample*> samples;
    std::vector<ml::ContentKey> keys;
    std::vector<std::size_t> indices;
    for (const Pending& pending : misses) {
      if (pending.job != job) continue;
      samples.push_back(pending.cached.sample.get());
      keys.push_back(pending.cached.key);
      indices.push_back(pending.index);
    }
    if (samples.empty()) continue;
    try {
      const auto batch_out = predictor_.predict_batch(job, samples, &keys);
      for (std::size_t k = 0; k < indices.size(); ++k) {
        runtimes[indices[k]] = batch_out[k];
        if (predict_cache_ != nullptr) {
          predict_cache_->insert(
              keys[k].salted(static_cast<std::uint64_t>(job) + 1),
              batch_out[k]);
        }
      }
    } catch (const std::exception& e) {
      for (const std::size_t index : indices) {
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        responses[index] =
            error_response(requests[index].id, kErrInternal, e.what());
      }
    }
  }

  // Phase 3: dump responses for everything that resolved to runtimes.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!responses[i].empty()) continue;
    JsonValue response = response_header(requests[i]);
    response.set("payload", predict_payload(requests[i], runtimes[i]));
    responses[i] = response.dump();
  }
  return responses;
}

void Service::export_metrics(obs::Registry& registry) const {
  stats_.export_to(registry);
  if (predict_cache_ != nullptr) {
    predict_cache_->export_to(registry, "svc.predict_cache");
  }
}

JsonValue Service::do_optimize(const Request& request) {
  if (!trained_) {
    throw std::runtime_error("predictor not trained (initialize() skipped)");
  }
  core::RuntimeLadders ladders{};
  for (const core::JobKind job : core::kAllJobs) {
    const CachedSample cached = sample_for(request, job);
    ladders[static_cast<int>(job)] = predict_runtimes(job, cached);
  }
  core::DeploymentOptimizer optimizer;
  if (request.spot) optimizer.enable_spot(cloud::SpotModel{});
  const core::DeploymentPlan plan =
      optimizer.optimize(ladders, request.deadline_seconds);

  JsonValue payload = JsonValue::object();
  payload.set("family", JsonValue::of(request.family));
  payload.set("size", JsonValue::of(request.size));
  payload.set("deadline_s", JsonValue::of(request.deadline_seconds));
  payload.set("feasible", JsonValue::of(plan.feasible));
  if (!plan.feasible) {
    const auto stages = optimizer.build_stages(ladders);
    payload.set("fastest_possible_s",
                JsonValue::of(cloud::fastest_completion_seconds(stages)));
    return payload;
  }
  JsonValue entries = JsonValue::array();
  for (const auto& entry : plan.entries) {
    JsonValue e = JsonValue::object();
    e.set("job", JsonValue::of(core::job_name(entry.job)));
    e.set("family",
          JsonValue::of(std::string(perf::to_string(entry.family))));
    e.set("vcpus", JsonValue::of(entry.vcpus));
    e.set("tier", JsonValue::of(entry.spot ? "spot" : "on-demand"));
    e.set("runtime_s", JsonValue::of(entry.runtime_seconds));
    e.set("cost_usd", JsonValue::of(entry.cost_usd));
    entries.push_back(std::move(e));
  }
  payload.set("entries", std::move(entries));
  payload.set("total_runtime_s", JsonValue::of(plan.total_runtime_seconds));
  payload.set("total_cost_usd", JsonValue::of(plan.total_cost_usd));
  return payload;
}

JsonValue Service::do_run_stage(const Request& request) {
  const nl::Aig design = make_design(request);
  // Engines run serially within a request (threads stay at the global
  // default); parallelism comes from concurrent requests. Results are
  // bit-identical either way (the PR-3 determinism contract).
  core::FlowOptions options;
  core::FlowResult flow;
  flow.design_name = design.name();
  core::StageContext ctx;
  ctx.library = &library_;
  ctx.flow = &flow;
  ctx.tracer = &obs::Tracer::global();
  ctx.metrics = &obs::Registry::global();

  core::StageResult last;
  for (const auto& engine : core::make_flow_engines(options)) {
    last = engine->run(design, ctx);
    if (engine->kind() == request.stage) break;
  }

  JsonValue payload = JsonValue::object();
  payload.set("design", JsonValue::of(flow.design_name));
  payload.set("stage", JsonValue::of(core::job_name(request.stage)));
  JsonValue qor = JsonValue::object();
  for (const auto& item : last.qor) {
    qor.set(item.name, JsonValue::of(item.value));
  }
  payload.set("qor", std::move(qor));
  return payload;
}

JsonValue Service::do_tune(const Request& request) {
  if (!trained_) {
    throw std::runtime_error("predictor not trained (initialize() skipped)");
  }
  const nl::Aig design = make_design(request);
  tune::TunerOptions options;
  options.space.random_samples = static_cast<std::size_t>(request.samples);
  options.space.seed = request.tune_seed;
  options.batch_size = static_cast<std::size_t>(request.batch);
  options.spot = request.spot;
  // The shared prediction cache fronts the tuner's recipe-variant predict
  // stream; tune answers depend only on the request (cache entries hold
  // exactly what the miss path computes), so responses stay byte-identical
  // at any worker count / request interleaving. Cache hit counters are
  // interleaving-dependent and therefore deliberately NOT in the payload.
  tune::RecipeTuner tuner(library_, predictor_, options,
                          predict_cache_.get());
  const tune::TuneResult result =
      tuner.tune(design, request.deadline_seconds);

  const auto plan_json = [](const tune::JointPlan& plan) {
    JsonValue p = JsonValue::object();
    p.set("recipe", JsonValue::of(plan.recipe_key));
    p.set("feasible", JsonValue::of(plan.plan.feasible));
    p.set("runtime_s", JsonValue::of(plan.plan.total_runtime_seconds));
    p.set("cost_usd", JsonValue::of(plan.plan.total_cost_usd));
    p.set("area_um2", JsonValue::of(plan.area_um2));
    JsonValue entries = JsonValue::array();
    for (const auto& entry : plan.plan.entries) {
      JsonValue e = JsonValue::object();
      e.set("job", JsonValue::of(core::job_name(entry.job)));
      e.set("vcpus", JsonValue::of(entry.vcpus));
      e.set("tier", JsonValue::of(entry.spot ? "spot" : "on-demand"));
      e.set("runtime_s", JsonValue::of(entry.runtime_seconds));
      e.set("cost_usd", JsonValue::of(entry.cost_usd));
      entries.push_back(std::move(e));
    }
    p.set("entries", std::move(entries));
    return p;
  };

  JsonValue payload = JsonValue::object();
  payload.set("family", JsonValue::of(request.family));
  payload.set("size", JsonValue::of(request.size));
  payload.set("deadline_s", JsonValue::of(request.deadline_seconds));
  payload.set("recipes_evaluated",
              JsonValue::of(static_cast<double>(result.evaluations.size())));
  payload.set("fixed", plan_json(result.fixed));
  payload.set("joint", plan_json(result.joint));
  payload.set("joint_at_qor", plan_json(result.joint_at_qor));
  payload.set("savings_vs_fixed_usd",
              JsonValue::of(result.savings_vs_fixed_usd()));
  JsonValue frontier = JsonValue::array();
  const std::size_t cap = std::min<std::size_t>(result.frontier.size(), 32);
  for (std::size_t i = 0; i < cap; ++i) {
    const tune::ParetoEntry& point = result.frontier[i];
    JsonValue entry = JsonValue::object();
    entry.set("deadline_s", JsonValue::of(point.deadline_seconds));
    entry.set("cost_usd", JsonValue::of(point.cost_usd));
    entry.set("area_um2", JsonValue::of(point.area_um2));
    entry.set("recipe", JsonValue::of(point.recipe_key));
    frontier.push_back(std::move(entry));
  }
  payload.set("frontier_size",
              JsonValue::of(static_cast<double>(result.frontier.size())));
  payload.set("frontier", std::move(frontier));
  return payload;
}

JsonValue Service::do_echo(const Request& request) {
  if (request.sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(request.sleep_ms));
  }
  JsonValue payload = JsonValue::object();
  payload.set("payload", JsonValue::of(request.payload));
  return payload;
}

}  // namespace edacloud::svc
