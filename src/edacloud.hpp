#pragma once
// Umbrella header: the library's public surface in one include.
//
//   #include "edacloud.hpp"
//
// pulls in the end-to-end flow (core/flow, core/stage), the
// characterization + prediction + deployment-optimization pipeline
// (core/characterize, core/predictor, core/optimizer), the discrete-event
// cloud fleet simulator with its fault-tolerance layer (sched/simulator),
// the spot-price market engine (market/market, market/price_trace),
// the network job service and its load harness (svc/server, svc/loadgen),
// the workload generators, and the observability handles (obs). Drivers
// and examples should include this instead of cherry-picking internals;
// anything not reachable from here is an implementation detail.

#include "core/characterize.hpp"
#include "core/flow.hpp"
#include "core/optimizer.hpp"
#include "core/predictor.hpp"
#include "core/stage.hpp"
#include "market/market.hpp"
#include "market/price_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/sharded_simulator.hpp"
#include "svc/loadgen.hpp"
#include "svc/server.hpp"
#include "tune/tuner.hpp"
#include "workloads/generators.hpp"
#include "workloads/registry.hpp"
