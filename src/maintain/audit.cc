#include "maintain/audit.h"

#include <algorithm>
#include <mutex>

#include "common/strings.h"
#include "util/morsel.h"

namespace instantdb {

Status AuditReport::Verify() const {
  if (clean()) return Status::OK();
  return Status::Corruption("deletion-assurance audit failed: " + ToString());
}

std::string AuditReport::ToString() const {
  return StringPrintf(
      "audit@%lld(grace=%lld): rows=%llu exposed_values=%llu "
      "stale_index=%llu missing_index=%llu overdue_tuples=%llu "
      "exposed_wal_segments=%llu unscrubbed_recycled=%llu "
      "max_exposure=%lld",
      static_cast<long long>(at), static_cast<long long>(grace),
      static_cast<unsigned long long>(rows_scanned),
      static_cast<unsigned long long>(exposed_values),
      static_cast<unsigned long long>(stale_index_entries),
      static_cast<unsigned long long>(missing_index_entries),
      static_cast<unsigned long long>(overdue_tuples),
      static_cast<unsigned long long>(exposed_wal_segments),
      static_cast<unsigned long long>(unscrubbed_recycled_segments),
      static_cast<long long>(max_exposure));
}

namespace {

/// Per-partition accumulator. Sweep workers fold one private copy per
/// claimed morsel, then merge it in under a mutex — the hot row loop never
/// shares a cache line across workers even when a skewed partition's
/// morsels are being swept by several of them.
struct PartitionFindings {
  uint64_t rows = 0;
  uint64_t exposed = 0;
  uint64_t overdue_tuples = 0;
  uint64_t stale_index = 0;
  uint64_t missing_index = 0;
  Micros max_exposure = 0;
};

}  // namespace

AuditReport DeletionAuditor::Run(const std::vector<Table*>& tables, Micros now,
                                 Micros grace) const {
  AuditReport report;
  report.at = now;
  report.grace = grace;
  const Micros horizon = grace >= now ? 0 : now - grace;

  for (Table* table : tables) {
    TableAuditFindings findings;
    findings.table = table->id();
    findings.name = table->def().name;
    const Schema& schema = table->schema();
    const auto& degradable = schema.degradable_columns();

    const uint32_t parts = table->num_partitions();
    std::vector<PartitionFindings> per(parts);
    std::mutex merge_mu;
    // Page-range morsels whose scan deltas are discarded: audit claims are
    // not query scans and must not perturb the scan-counter invariant.
    // Read-only fan-out; cursor batches hold one shared latch at a time, so
    // the audit never blocks a writer or the degrader for longer than one
    // batch. Each batch decodes no stable value: the sweep reads only the
    // insert time and each cell's stored phase. Scan errors surface as a
    // Status and abort the whole sweep.
    ScanSpec spec;
    spec.output_columns.assign(schema.stable_columns().size(), false);
    const size_t dcols = degradable.size();
    MorselScheduler sched(table->MorselPlan(0));
    const size_t workers =
        std::max<size_t>(1, std::min<size_t>(workers_, sched.total()));
    auto sweep = [&](size_t w) -> Status {
      Morsel morsel;
      ScanWorkspace ws;
      ScanDeltas deltas;
      while (sched.Claim(w, &morsel)) {
        PartitionFindings acc;
        PartitionCursor cursor = table->OpenMorselCursor(morsel);
        bool done = false;
        while (!done) {
          IDB_RETURN_IF_ERROR(
              cursor.NextBatch(1024, spec, &ws, &done, &deltas));
          for (size_t k = 0; k < ws.count; ++k) {
            const Micros insert_time = ws.tuples[k].insert_time;
            ++acc.rows;
            size_t removed = 0;
            for (size_t d = 0; d < dcols; ++d) {
              const AttributeLcp& lcp = schema.column(degradable[d]).lcp;
              const int stored = ws.phases[k * dcols + d];
              if (stored >= lcp.num_phases()) {
                ++removed;
                continue;
              }
              // Phase the LCP expects at the horizon; anything stored
              // more accurately has outlived a transition deadline.
              const int expected = lcp.PhaseAt(horizon - insert_time);
              if (stored < expected) {
                ++acc.exposed;
                // The value should have left `stored` at this deadline;
                // the attack window is how long past it we caught it.
                const Micros deadline =
                    insert_time + lcp.PhaseEndOffset(stored);
                acc.max_exposure = std::max(acc.max_exposure, now - deadline);
              }
            }
            // Every value at ⊥ but the shell still in the heap: the
            // disappearance step is overdue (counted per tuple, not per
            // value, so it never double-counts with exposed_values).
            if (dcols != 0 && removed == dcols) {
              ++acc.overdue_tuples;
            }
          }
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        PartitionFindings& dst = per[morsel.partition];
        dst.rows += acc.rows;
        dst.exposed += acc.exposed;
        dst.overdue_tuples += acc.overdue_tuples;
        dst.max_exposure = std::max(dst.max_exposure, acc.max_exposure);
      }
      return Status::OK();
    };
    Status swept = pool_.Run(workers, workers, sweep);
    if (swept.ok()) {
      // Index reconciliation stays partition-grained: AuditIndexes is one
      // shared-latch acquisition over the whole partition by design.
      auto audit_indexes = [&](size_t p) -> Status {
        const TablePartition::IndexAuditCounts index_counts =
            table->partition(static_cast<uint32_t>(p))->AuditIndexes();
        per[p].stale_index = index_counts.stale;
        per[p].missing_index = index_counts.missing;
        return Status::OK();
      };
      swept = pool_.Run(workers_, parts, audit_indexes);
    }
    if (!swept.ok()) {
      // A partition that cannot even be read counts as exposed: the audit
      // must fail loudly, never vouch for bytes it could not check.
      ++findings.exposed_values;
      findings.name += " (sweep failed: " + swept.ToString() + ")";
    }
    for (uint32_t p = 0; p < parts; ++p) {
      const PartitionFindings& acc = per[p];
      findings.rows_scanned += acc.rows;
      findings.exposed_values += acc.exposed;
      findings.overdue_tuples += acc.overdue_tuples;
      findings.stale_index_entries += acc.stale_index;
      findings.missing_index_entries += acc.missing_index;
      findings.max_exposure = std::max(findings.max_exposure, acc.max_exposure);
      if (acc.exposed != 0 || acc.overdue_tuples != 0 || acc.stale_index != 0) {
        findings.exposed_partitions.push_back(p);
      }
    }

    report.rows_scanned += findings.rows_scanned;
    report.exposed_values += findings.exposed_values;
    report.stale_index_entries += findings.stale_index_entries;
    report.missing_index_entries += findings.missing_index_entries;
    report.overdue_tuples += findings.overdue_tuples;
    report.max_exposure = std::max(report.max_exposure, findings.max_exposure);
    report.tables.push_back(std::move(findings));
  }

  if (wal_ != nullptr) {
    const WalManager::ExposureAudit wal_audit = wal_->AuditExposure(horizon);
    report.exposed_wal_segments = wal_audit.exposed_segments;
    report.unscrubbed_recycled_segments = wal_audit.unscrubbed_recycled;
  }
  return report;
}

}  // namespace instantdb
