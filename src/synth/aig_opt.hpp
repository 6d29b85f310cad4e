#pragma once
// AIG optimization passes — the logic-optimization half of the synthesis
// job. All passes rebuild a fresh AIG (structural hashing deduplicates on
// the way), preserving the logic function of every output:
//   cleanup — drop nodes unreachable from the outputs
//   rewrite — one-level Boolean simplification (containment/resolution
//             rules on AND trees)
//   balance — depth-oriented rebalancing of single-fanout conjunctions
//
// Passes report into an optional perf::Sink: strash probes show up as hashed
// (cache-unfriendly) loads, rule applicability tests as data-dependent
// branches — the signature the paper attributes to synthesis in Fig. 2.

#include "nl/aig.hpp"
#include "perf/sink.hpp"

namespace edacloud::synth {

nl::Aig cleanup(const nl::Aig& aig);

nl::Aig rewrite(const nl::Aig& aig, perf::Sink sink = {});

nl::Aig balance(const nl::Aig& aig, perf::Sink sink = {});

}  // namespace edacloud::synth
