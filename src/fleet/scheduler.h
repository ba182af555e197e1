// Fleet campaign scheduler (src/fleet): shards the replay injection
// schedule across forked worker processes and merges their verdict streams
// into a report byte-identical to a single-process run. See docs/fleet.md
// for the architecture and the failure matrix.

#ifndef MUMAK_SRC_FLEET_SCHEDULER_H_
#define MUMAK_SRC_FLEET_SCHEDULER_H_

#include "src/core/fault_injection.h"
#include "src/fleet/fleet.h"

namespace mumak {

// Drop-in replacement for FaultInjectionEngine::InjectAll when
// config.workers > 1: shards the seq-sorted schedule into epoch-contiguous
// ranges, forks config.workers processes running the replay+sandbox+
// verdict-cache pipeline (src/fleet/worker.h), coordinates them over MFL1
// unix-socket pairs (work stealing from slow shards, heartbeat/timeout
// death detection with re-queue of the lost range), and hands every
// verdict to the same VerdictLedger InjectAll uses (src/core/
// verdict_ledger.h), whose seq-ordered fold makes the report independent
// of which worker ran what. Requires engine->replay_ready() (Profile() ran
// with the replay strategy); handles --resume-journal, --verdict-cache,
// the journal, metrics (fleet.* counters + per-worker lanes), progress,
// budget and cancellation exactly like InjectAll. If every worker dies, the remaining
// ranges run inline in this process — a one-worker fleet degrades to the
// single-process pipeline, never to a lost campaign.
Report RunFleetCampaign(FaultInjectionEngine* engine, FailurePointTree* tree,
                        FaultInjectionStats* stats, const FleetConfig& config);

}  // namespace mumak

#endif  // MUMAK_SRC_FLEET_SCHEDULER_H_
