// What the workloads share: the networks and design point they run on, the
// spike comparison key and the engine-mode profile metrics.
#pragma once

#include <vector>

#include "core/config.h"
#include "ecnn/quantized.h"
#include "event/event_stream.h"
#include "harness.h"
#include "obs/run_profile.h"

namespace perfbench {

/// The 8-slice paper design point (time-multiplexed gesture network).
sne::core::SneConfig design_point();

/// The activity-calibrated Fig. 6 gesture network bench_energy_proportionality
/// builds: paper_topology(2,32,32,11,8,64) with fixed random weights and each
/// layer's integer threshold binary-searched against the golden model so its
/// output activity tracks its input activity. Independent of the workload
/// seed, so simulated metrics differ between seeds only through the inputs.
sne::ecnn::QuantizedNetwork gesture_network();

/// Two 3x3 conv layers over 16x16 two-polarity input, each one slice pass:
/// the pipeline-mode (one slice per layer) model streaming sessions run.
sne::ecnn::QuantizedNetwork session_network();

/// UPDATE events of `s` in (t, ch, y, x) order: the engine == golden
/// comparison key (emission order within a timestep is not part of the
/// contract).
std::vector<sne::event::Event> canonical_spikes(const sne::event::EventStream& s);

/// Sets core.prof.<mode> to `profile`'s cycles per run (and drain spans per
/// run) over `runs` profiled runs.
void add_profile_metrics(Values& v, const sne::obs::RunProfile& profile,
                         std::size_t runs);

}  // namespace perfbench
