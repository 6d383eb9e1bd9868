#include "service/service.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/builtin_domains.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "maintain/audit.h"
#include "query/cursor.h"
#include "query/session.h"
#include "util/file.h"
#include "util/worker_pool.h"

namespace instantdb {
namespace {

/// The accounting invariant ISSUE 10 demands: every submission lands in
/// exactly one terminal bucket.
void ExpectServiceInvariant(const Database& db) {
  const Database::ServiceStats s = db.stats().service;
  EXPECT_EQ(s.admitted + s.rejected_overload + s.rejected_shutdown +
                s.rejected_deadline,
            s.submitted)
      << "admitted=" << s.admitted << " overload=" << s.rejected_overload
      << " shutdown=" << s.rejected_shutdown
      << " deadline=" << s.rejected_deadline << " submitted=" << s.submitted;
}

/// One-shot gate: a statement parks on it so a test can hold the service's
/// admission slot(s) occupied while probing queue behavior.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_service_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    options.degradation.worker_threads = 2;
    options.partitions = 4;            // several degradation units per pass
    options.wal.segment_bytes = 4096;  // frequent rollover + retirement
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);

    auto schema = Schema::Make(
        {ColumnDef::Stable("name", ValueType::kString),
         ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp()),
         ColumnDef::Degradable(
             "salary", SalaryDomain(),
             *AttributeLcp::Make({{0, kMicrosPerDay}, {1, kMicrosPerMonth}}))});
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(db_->CreateTable("person", *schema).ok());
  }
  void TearDown() override {
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  void InsertPeople(Session* session) {
    for (const char* sql :
         {"INSERT INTO person VALUES ('alice', '11 Rue Lepic', 2345)",
          "INSERT INTO person VALUES ('bob', '3 Av Foch', 2999)",
          "INSERT INTO person VALUES ('carol', '4 Rue Breteuil', 3500)",
          "INSERT INTO person VALUES ('dave', '8 Cours Mirabeau', 9000)"}) {
      auto result = session->Execute(sql);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
  }

  /// Spins until `stats().service` satisfies `pred` (the admission queues
  /// are internal; the counters are the observable surface).
  template <typename Pred>
  void AwaitService(Pred pred) {
    while (!pred(db_->stats().service)) std::this_thread::yield();
  }

  static Status Nop(Session*) { return Status::OK(); }

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<Database> db_;
};

// --- admission control -------------------------------------------------------

TEST_F(ServiceTest, AdmitsUpToMaxConcurrentAndRejectsBeyondQueueDepth) {
  ServiceOptions opts;
  opts.max_concurrent = 1;
  opts.queue_depth = 1;
  ServiceFrontEnd service(db_.get(), opts);
  Session holder_session(db_.get()), queued_session(db_.get()),
      rejected_session(db_.get());

  Gate gate;
  Gate holder_in;
  std::thread holder([&] {
    Status status = service.Run(&holder_session, ServiceClass::kNormal,
                                /*is_write=*/false, [&](Session*) {
                                  holder_in.Open();
                                  gate.Wait();
                                  return Status::OK();
                                });
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  holder_in.Wait();

  Status queued_status;
  std::thread queued([&] {
    queued_status = service.Run(&queued_session, ServiceClass::kNormal,
                                /*is_write=*/false, Nop);
  });
  AwaitService([](const Database::ServiceStats& s) { return s.queued >= 1; });

  // Queue depth 1 is full: the third submission sheds immediately.
  Status rejected = service.Run(&rejected_session, ServiceClass::kNormal,
                                /*is_write=*/false, Nop);
  EXPECT_TRUE(rejected.IsOverloaded()) << rejected.ToString();

  gate.Open();
  holder.join();
  queued.join();
  EXPECT_TRUE(queued_status.ok()) << queued_status.ToString();

  const Database::ServiceStats stats = db_->stats().service;
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected_overload, 1u);
  EXPECT_EQ(stats.queued, 1u);
  EXPECT_GE(stats.max_queue_depth, 1u);
  ExpectServiceInvariant(*db_);
}

TEST_F(ServiceTest, WeightedFairDrainingFavorsHighWithoutStarvingLow) {
  ServiceOptions opts;
  opts.max_concurrent = 1;
  opts.queue_depth = 8;
  // weights 4:2:1 (the default); expected drain order below is the exact
  // virtual-time schedule for 4 queued kHigh vs 4 queued kLow.
  ServiceFrontEnd service(db_.get(), opts);

  Gate gate;
  Gate holder_in;
  Session holder_session(db_.get());
  std::thread holder([&] {
    Status status = service.Run(&holder_session, ServiceClass::kNormal, false,
                                [&](Session*) {
                                  holder_in.Open();
                                  gate.Wait();
                                  return Status::OK();
                                });
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  holder_in.Wait();

  std::mutex order_mu;
  std::string order;
  std::vector<std::thread> threads;
  std::vector<Session> sessions;
  sessions.reserve(8);
  for (int i = 0; i < 8; ++i) sessions.emplace_back(db_.get());
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      Status status = service.Run(&sessions[i], ServiceClass::kHigh, false,
                                  [&](Session*) {
                                    std::lock_guard<std::mutex> lock(order_mu);
                                    order += 'H';
                                    return Status::OK();
                                  });
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
  }
  for (int i = 4; i < 8; ++i) {
    threads.emplace_back([&, i] {
      Status status = service.Run(&sessions[i], ServiceClass::kLow, false,
                                  [&](Session*) {
                                    std::lock_guard<std::mutex> lock(order_mu);
                                    order += 'L';
                                    return Status::OK();
                                  });
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
  }
  AwaitService([](const Database::ServiceStats& s) { return s.queued >= 8; });
  gate.Open();
  holder.join();
  for (auto& t : threads) t.join();

  // Virtual times h/4 vs l/1, ties to the higher class: H first (tie), one
  // early L (no starvation), then high's weight advantage drains the rest
  // of its queue before low's remainder.
  EXPECT_EQ(order, "HLHHHLLL");
  ExpectServiceInvariant(*db_);
}

// --- deadlines & cancellation ------------------------------------------------

TEST_F(ServiceTest, DeadlineExpiredBeforeAdmissionRejectsWithTimeout) {
  ServiceFrontEnd service(db_.get());
  Session session(db_.get());
  clock_->Advance(1000);
  Status status = service.Run(&session, ServiceClass::kNormal, false, Nop,
                              /*cancel=*/nullptr, /*deadline=*/500);
  EXPECT_TRUE(status.IsTimeout()) << status.ToString();
  const Database::ServiceStats stats = db_->stats().service;
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  ExpectServiceInvariant(*db_);
}

TEST_F(ServiceTest, ScanObservesDeadlineMidStatementWithoutLeakingTokens) {
  ServiceFrontEnd service(db_.get());
  Session session(db_.get());
  InsertPeople(&session);

  clock_->Advance(1000);
  Status status = service.Run(
      &session, ServiceClass::kNormal, false,
      [&](Session* s) -> Status {
        // The service wired our absolute deadline into the session's scan
        // options; expire it mid-statement and scan.
        clock_->Advance(10 * kMicrosPerSecond);
        auto result = s->Execute("SELECT name, location FROM person");
        return result.status();
      },
      /*cancel=*/nullptr, /*deadline=*/clock_->NowMicros() + kMicrosPerSecond);
  EXPECT_TRUE(status.IsTimeout()) << status.ToString();

  WorkerPool* pool = db_->worker_pool();
  EXPECT_EQ(pool->free_workers(), pool->size()) << "scan leaked pool tokens";
  const Database::ServiceStats stats = db_->stats().service;
  EXPECT_EQ(stats.admitted, 1u);  // admitted, then timed out mid-execution
  EXPECT_GE(stats.timeouts, 1u);
  ExpectServiceInvariant(*db_);
}

TEST_F(ServiceTest, CursorScanChecksDeadlineBetweenPulls) {
  Session session(db_.get());
  InsertPeople(&session);
  clock_->Advance(1000);

  session.scan_options().deadline = clock_->NowMicros() + kMicrosPerSecond;
  auto cursor = session.ExecuteCursor("SELECT name FROM person");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  clock_->Advance(10 * kMicrosPerSecond);  // past the deadline
  CursorRow row;
  auto next = (*cursor)->Next(&row);
  EXPECT_TRUE(next.status().IsTimeout()) << next.status().ToString();
  (*cursor)->Close();
  session.scan_options().deadline = 0;

  WorkerPool* pool = db_->worker_pool();
  EXPECT_EQ(pool->free_workers(), pool->size()) << "scan leaked pool tokens";
}

TEST_F(ServiceTest, CancelTokenAbortsStatement) {
  ServiceFrontEnd service(db_.get());
  Session session(db_.get());
  InsertPeople(&session);

  CancelToken cancel;
  cancel.Cancel();  // tripped before the scan starts: first check aborts
  Status status = service.Run(
      &session, ServiceClass::kNormal, false,
      [&](Session* s) -> Status {
        return s->Execute("SELECT name FROM person").status();
      },
      &cancel);
  EXPECT_TRUE(status.IsAborted()) << status.ToString();
  EXPECT_EQ(db_->stats().service.cancelled, 1u);
  ExpectServiceInvariant(*db_);
}

// --- backpressure shedding ---------------------------------------------------

TEST_F(ServiceTest, DegradationBacklogShedsWritesBeforeReadsLowBeforeHigh) {
  ServiceOptions opts;
  opts.pressure_refresh = 0;  // sample fresh every admission
  ServiceFrontEnd service(db_.get(), opts);
  Session session(db_.get());
  InsertPeople(&session);

  // Let the salary phase-0 deadline (1 day) lapse without degrading:
  // overdue backlog >= degradation_backlog_high -> pressure score 1.
  clock_->Advance(2 * kMicrosPerDay);
  ASSERT_GE(db_->degradation()->OverdueUnits(clock_->NowMicros()), 1u);
  const PressureState pressure = service.SamplePressure();
  EXPECT_TRUE(pressure.degradation_pressure);
  EXPECT_EQ(pressure.score, 1);

  // Score 1 sheds exactly the lowest class's writes; its reads and every
  // higher class still get through.
  EXPECT_TRUE(service.Run(&session, ServiceClass::kLow, /*is_write=*/true, Nop)
                  .IsOverloaded());
  EXPECT_TRUE(
      service.Run(&session, ServiceClass::kLow, /*is_write=*/false, Nop).ok());
  EXPECT_TRUE(
      service.Run(&session, ServiceClass::kNormal, /*is_write=*/true, Nop)
          .ok());
  EXPECT_TRUE(
      service.Run(&session, ServiceClass::kHigh, /*is_write=*/true, Nop).ok());

  // Clear the backlog; the write rung opens again.
  auto moved = db_->RunDegradationOnce();
  ASSERT_TRUE(moved.ok());
  EXPECT_GT(*moved, 0u);
  EXPECT_TRUE(service.Run(&session, ServiceClass::kLow, /*is_write=*/true, Nop)
                  .ok());
  ExpectServiceInvariant(*db_);
}

TEST_F(ServiceTest, PoolExhaustionAddsASheddingRung) {
  ServiceOptions opts;
  opts.pressure_refresh = 0;
  opts.reserved_degradation_workers = 1;
  ServiceFrontEnd service(db_.get(), opts);
  Session session(db_.get());

  // Saturate every normal-visible pool token (pool size 2, 1 reserved).
  WorkerPool* pool = db_->worker_pool();
  Gate gate;
  std::atomic<int> parked{0};
  WorkerPool::Ticket ticket;
  const size_t taken = pool->TryDispatch(
      pool->size(),
      [&](size_t) {
        parked.fetch_add(1);
        gate.Wait();
      },
      &ticket);
  EXPECT_EQ(taken, 1u) << "normal dispatch must not see the reserve";
  while (parked.load() < 1) std::this_thread::yield();

  const PressureState pressure = service.SamplePressure();
  EXPECT_TRUE(pressure.pool_pressure);
  EXPECT_EQ(pressure.pool_free_workers, 0u);
  EXPECT_EQ(pressure.score, 1);
  EXPECT_TRUE(service.Run(&session, ServiceClass::kLow, /*is_write=*/true, Nop)
                  .IsOverloaded());
  EXPECT_TRUE(
      service.Run(&session, ServiceClass::kHigh, /*is_write=*/false, Nop).ok());

  gate.Open();
  pool->Wait(&ticket);
  ExpectServiceInvariant(*db_);
}

// --- degradation priority floor ----------------------------------------------

TEST_F(ServiceTest, DegradationFloorHoldsAtFullQueryLoad) {
  ServiceOptions opts;
  opts.reserved_degradation_workers = 1;
  ServiceFrontEnd service(db_.get(), opts);
  Session session(db_.get());
  InsertPeople(&session);
  // Spread rows over every partition so the pass has enough units to fan
  // out (a single-unit pass drains on the caller and needs no helper).
  for (int i = 0; i < 12; ++i) {
    auto id = db_->Insert("person", {Value::String("u" + std::to_string(i)),
                                     Value::String("11 Rue Lepic"),
                                     Value::Int64(1000 + i)});
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }

  // 100% query load: a foreground fan-out holds every normal-visible pool
  // token for the whole degradation pass.
  WorkerPool* pool = db_->worker_pool();
  ASSERT_EQ(pool->reserved(), 1u);
  Gate gate;
  std::atomic<int> parked{0};
  WorkerPool::Ticket ticket;
  const size_t taken = pool->TryDispatch(
      pool->size(),
      [&](size_t) {
        parked.fetch_add(1);
        gate.Wait();
      },
      &ticket);
  ASSERT_EQ(taken, pool->size() - pool->reserved());
  while (parked.load() < static_cast<int>(taken)) std::this_thread::yield();

  // The overdue degradation step still completes: the engine's priority
  // dispatch takes the reserved token foreground dispatches cannot see.
  clock_->Advance(2 * kMicrosPerDay);
  ASSERT_GE(db_->degradation()->OverdueUnits(clock_->NowMicros()), 2u);
  auto moved = db_->RunDegradationOnce();
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_GT(*moved, 0u);
  EXPECT_EQ(db_->degradation()->OverdueUnits(clock_->NowMicros()), 0u);
  EXPECT_GE(db_->stats().service.degradation_reserved_dispatches, 1u);

  gate.Open();
  pool->Wait(&ticket);

  // Deletion assurance: let a cadence point retire the WAL segments still
  // holding the accurate insert payloads, then nothing is retained past
  // its deadline at any layer.
  ASSERT_TRUE(db_->degradation()->RunOnce(clock_->NowMicros()).ok());
  AuditReport report = db_->Audit();
  EXPECT_TRUE(report.Verify().ok()) << report.ToString();
  ExpectServiceInvariant(*db_);
}

TEST_F(ServiceTest, WorkerPoolReserveIsInvisibleToNormalDispatch) {
  WorkerPool pool(2);
  pool.SetReserved(1);

  Gate gate;
  std::atomic<int> parked{0};
  WorkerPool::Ticket normal_ticket;
  // A normal dispatch wanting everything gets size - reserved.
  EXPECT_EQ(pool.TryDispatch(
                2,
                [&](size_t) {
                  parked.fetch_add(1);
                  gate.Wait();
                },
                &normal_ticket),
            1u);
  while (parked.load() < 1) std::this_thread::yield();
  // A second normal dispatch is refused the reserve even though a worker
  // is free...
  WorkerPool::Ticket refused;
  EXPECT_EQ(pool.TryDispatch(1, [](size_t) {}, &refused), 0u);
  EXPECT_EQ(pool.reserved_grants(), 0u);
  // ...while a priority dispatch takes it, and the dip is counted.
  WorkerPool::Ticket priority_ticket;
  EXPECT_EQ(pool.TryDispatch(
                1, [&](size_t) { parked.fetch_add(1); }, &priority_ticket,
                /*priority=*/true),
            1u);
  pool.Wait(&priority_ticket);
  EXPECT_EQ(pool.reserved_grants(), 1u);

  gate.Open();
  pool.Wait(&normal_ticket);
  EXPECT_EQ(pool.free_workers(), pool.size());
}

// --- shutdown ----------------------------------------------------------------

TEST_F(ServiceTest, CloseDrainsQueuedStatementsWithShutdown) {
  ServiceOptions opts;
  opts.max_concurrent = 1;
  opts.queue_depth = 4;
  ServiceFrontEnd service(db_.get(), opts);
  Session holder_session(db_.get());
  Session queued_sessions[2] = {Session(db_.get()), Session(db_.get())};

  Gate gate;
  Gate holder_in;
  std::thread holder([&] {
    Status status =
        service.Run(&holder_session, ServiceClass::kNormal, false,
                    [&](Session*) {
                      holder_in.Open();
                      gate.Wait();
                      return Status::OK();
                    });
    // Admitted before the close: it runs to completion.
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  holder_in.Wait();

  Status queued_status[2];
  std::thread queued[2];
  for (int i = 0; i < 2; ++i) {
    queued[i] = std::thread([&, i] {
      queued_status[i] =
          service.Run(&queued_sessions[i], ServiceClass::kNormal, false, Nop);
    });
  }
  AwaitService([](const Database::ServiceStats& s) { return s.queued >= 2; });

  Status close_status;
  std::thread closer([&] { close_status = db_->Close(); });
  // The pre-close hook rejects both queued statements without waiting for
  // the in-flight one...
  AwaitService(
      [](const Database::ServiceStats& s) { return s.rejected_shutdown >= 2; });
  for (auto& t : queued) t.join();
  EXPECT_TRUE(queued_status[0].IsShutdown()) << queued_status[0].ToString();
  EXPECT_TRUE(queued_status[1].IsShutdown()) << queued_status[1].ToString();

  // ...then blocks until it finishes before closing the engine.
  gate.Open();
  holder.join();
  closer.join();
  EXPECT_TRUE(close_status.ok()) << close_status.ToString();

  // New submissions after close reject immediately.
  Session late(db_.get());
  EXPECT_TRUE(
      service.Run(&late, ServiceClass::kHigh, false, Nop).IsShutdown());
  ExpectServiceInvariant(*db_);
}

// --- statement classification ------------------------------------------------

TEST_F(ServiceTest, StatementKeywordSniffClassifiesWrites) {
  EXPECT_TRUE(ServiceFrontEnd::StatementIsWrite("INSERT INTO t VALUES (1)"));
  EXPECT_TRUE(ServiceFrontEnd::StatementIsWrite("  delete from t"));
  EXPECT_TRUE(ServiceFrontEnd::StatementIsWrite("Create Table t (x INT)"));
  EXPECT_FALSE(ServiceFrontEnd::StatementIsWrite("SELECT * FROM t"));
  EXPECT_FALSE(ServiceFrontEnd::StatementIsWrite("  select 1"));
}

TEST_F(ServiceTest, ExecuteRunsSqlUnderAdmission) {
  ServiceFrontEnd service(db_.get());
  Session session(db_.get());
  auto insert = service.Execute(
      &session, "INSERT INTO person VALUES ('eve', '11 Rue Lepic', 1234)");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  auto select = service.Execute(&session, "SELECT name FROM person");
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  EXPECT_EQ(select->rows.size(), 1u);
  EXPECT_EQ(db_->stats().service.admitted, 2u);
  ExpectServiceInvariant(*db_);
}

}  // namespace
}  // namespace instantdb
