#ifndef INSTANTDB_INSTANTDB_H_
#define INSTANTDB_INSTANTDB_H_

/// \file
/// \brief Umbrella header: the full public API of InstantDB, a DBMS that
/// enforces timely degradation of sensitive data (Anciaux et al., ICDE'08).
///
/// Core concepts:
///  - DomainHierarchy / GeneralizationTree / IntervalHierarchy — the
///    generalization trees of §II (Fig. 1).
///  - AttributeLcp / TupleLcp — Life Cycle Policies (Fig. 2 / Fig. 3).
///  - Schema / ColumnDef — stable vs. degradable attributes.
///  - Database — engine facade (storage, WAL, transactions, degrader).
///  - Session — SQL with DECLARE PURPOSE accuracy binding.
///  - DegradationEngine / AuditReport — one background loop that runs the
///    degradation passes, the checkpoint cadence and the deletion-assurance
///    audits that *prove* data past its deadline is gone (enable with
///    DbOptions::degradation.background_thread and
///    DbOptions::maintenance.enabled; verify with Database::Audit().Verify()).
///
/// Scalable read/write surfaces (designed for high-rate append streams and
/// bounded-memory consumers):
///  - WriteBatch + Database::Write — stage N inserts/deletes across tables,
///    commit atomically through one transaction and one WAL append/sync
///    (group commit); assigned row ids come back per staged insert.
///  - Session::ExecuteCursor → Cursor — pull-based row-at-a-time iterator
///    (scan → σ at accuracy level → π pipeline); a SELECT over millions of
///    rows never materializes more than one small scan batch.
///  - Session::Prepare → PreparedStatement — parse once, bind `?`
///    parameters, execute many; the hot path for ingest loops.
/// `Session::Execute` remains the convenience wrapper: it runs the same
/// scan → σ → π pipeline with the projection done on the scan workers and
/// returns a fully materialized QueryResult (typed values; display strings
/// rendered on demand).

#include "catalog/builtin_domains.h"
#include "catalog/catalog.h"
#include "catalog/generalization.h"
#include "catalog/lcp.h"
#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/clock.h"
#include "common/options.h"
#include "common/result.h"
#include "common/status.h"
#include "db/database.h"
#include "db/table.h"
#include "db/write_batch.h"
#include "degrade/degradation_engine.h"
#include "maintain/audit.h"
#include "query/cursor.h"
#include "query/prepared_statement.h"
#include "query/session.h"
#include "service/service.h"

#endif  // INSTANTDB_INSTANTDB_H_
