// The three workloads. Each appends its members to the report object open in
// `w` and records anything it found wrong in `errors`.
#pragma once

#include "common.hpp"
#include "obs/json.hpp"

namespace perfbench {

/// In-process Graphene block relay (src/graphene, chain, bloom, iblt, net).
void run_relay_block(const Options& opts, graphene::obs::json::Writer& w, Errors& errors);

/// RelayDaemon over TCP with the Graphene (rateless = false) or the rateless
/// coded-symbol backend (src/daemon, reconcile, net, bloom, iblt).
void run_sync(const Options& opts, bool rateless, graphene::obs::json::Writer& w,
              Errors& errors);

}  // namespace perfbench
