// Epoch-barrier reference run for the fleet tests.
//
// Fleet::run() drives sessions with the work-stealing scheduler. This oracle
// drives the same sessions the simplest possible way — epoch by epoch,
// every session in id order advances to the epoch target on the calling
// thread — and is structurally incapable of reordering anything. With the
// shared verdict tier off, the scheduler's digests must equal it byte for
// byte.
#pragma once

#include <algorithm>

#include "fleet/fleet.h"

namespace darpa::fleet {

/// Runs `fleet` (which must not have been run()) to its configured
/// duration with epoch barriers, and returns the roll-up.
inline FleetSnapshot runEpochBarrierOracle(Fleet& fleet) {
  const FleetConfig& config = fleet.config();
  for (int i = 0; i < fleet.sessionCount(); ++i) fleet.session(i).start();
  for (Millis epochEnd = config.epoch; config.duration > Millis{0};
       epochEnd = epochEnd + config.epoch) {
    const Millis target = std::min(epochEnd, config.duration);
    for (int i = 0; i < fleet.sessionCount(); ++i) {
      fleet.session(i).advanceTo(target);
    }
    if (target == config.duration) break;
  }
  FleetSnapshot snap = fleet.snapshot();
  snap.simTime = config.duration;
  return snap;
}

}  // namespace darpa::fleet
